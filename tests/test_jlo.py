import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern import expectations, jlo, triples
from heatchern.cochains import random_cochain
from heatchern.errors import ComplexityCap, NoConvergence, PairingInputInvalid
from heatchern.expectations import repeated_expectation_series
from heatchern.linalg import eig_hermitian, expm
from heatchern.jlo import (
    PairingInput,
    coboundary_pairing_residual,
    equivariant_index,
    gauss_hermite_transform,
    generating_functional,
    involution_from_idempotent,
    jlo_cochain,
    jlo_component,
    pairing,
    pairing_coefficient,
    pairing_gaussian,
    pairing_series,
)
from heatchern.models import random_involution, random_triple
from heatchern.split import build_n2_susy_example
from heatchern.triples import SpectralTriple, derivative


def even_tuple(t, rng, count):
    out = []
    for _ in range(count):
        raw = rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim))
        out.append((raw + t.conj_gamma(raw)) / 2)
    return out


class TestComponents:
    def test_level_zero_identity_is_index(self, zero_mode):
        val = jlo_component(zero_mode, 0, [np.eye(3)])
        assert val == pytest.approx(equivariant_index(zero_mode), abs=1e-13)

    def test_zero_mode_index_is_one(self, zero_mode):
        assert jlo_component(zero_mode, 0, [np.eye(3)]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_components_vanish(self, rng, n):
        t = random_triple(4, seed=51)
        mats = even_tuple(t, rng, n + 1)
        assert abs(jlo_component(t, n, mats)) < 1e-12

    def test_vanishes_on_identity_slots(self, rng):
        t = random_triple(3, seed=52)
        mats = even_tuple(t, rng, 3)
        mats[2] = np.eye(3, dtype=complex)
        assert jlo_component(t, 2, mats) == 0.0

    def test_alternating_sum_identity(self, rng):
        t = random_triple(3, seed=53)
        n = 2
        mats = even_tuple(t, rng, n + 1)
        tot = 0.0
        for j in range(n + 1):
            args = mats[:j] + [derivative(t, mats[j])] + mats[j + 1 :]
            tot += (-1) ** j * jlo_component(t, n, args, check_even=False)
        assert abs(tot) < 1e-11

    def test_rejects_gamma_odd_argument(self, zero_mode):
        from heatchern.errors import ValidationFailure

        odd = zero_mode.Q.copy()
        with pytest.raises(ValidationFailure):
            jlo_component(zero_mode, 0, [odd])

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("kind", ["plain", "split"])
    def test_plane_beta_component_is_the_lift(self, kind, beta):
        # oracle: beta^{-n/2} <a_0, da_1, ..., da_n> on the simplex of size beta
        if kind == "plain":
            t = random_triple(4, seed=54, group="z2")
        else:
            t, _ = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        rng = np.random.default_rng(55)
        for n in range(5):
            mats = even_tuple(t, rng, n + 1)
            verts = [mats[0]] + [t.derive(a) for a in mats[1:]]
            oracle = beta ** (-n / 2.0) * expectations.expectation_value(t, verts, beta=beta)
            got = jlo_component(t.lifted(1, beta), n, mats)
            assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))


class TestGeneratingFunctional:
    def test_at_origin_identity(self, zero_mode):
        inp = PairingInput(a=np.eye(3, dtype=complex))
        val = generating_functional(zero_mode, inp, 0.0)
        assert val == pytest.approx(equivariant_index(zero_mode), abs=1e-12)

    @pytest.mark.parametrize("tt", [-1.5, -0.3, 0.0, 0.7, 2.0, 0.4 + 0.3j])
    def test_exchange_closed_form(self, exchange, tt):
        # eigenvalues of the exponent are -1 +- 2t; J is entire in t
        inp = PairingInput(a=exchange.gamma.copy())
        val = generating_functional(exchange, inp, tt)
        assert val == pytest.approx(2.0 * math.exp(-1.0) * cmath.cosh(2 * tt), rel=1e-12)

    @pytest.mark.parametrize("tt", [0.5, 1.0, 2.0])
    def test_series_cross_check(self, tt):
        # J(t) = sum (-t^2)^n tau_2n(a,...,a) with the series from one
        # block-Toeplitz exponential
        t = random_triple(3, seed=54)
        a = random_involution(t, np.random.default_rng(55))
        inp = PairingInput(a=a)
        da = derivative(t, a)
        front = t.gamma @ a
        series = repeated_expectation_series(t, a, da, 24)
        total = sum((-(tt**2)) ** k * series[2 * k] for k in range(13))
        direct = generating_functional(t, inp, tt)
        assert abs(total - direct) < 1e-8


class TestPairing:
    def test_coefficients(self):
        assert pairing_coefficient(0) == 1.0
        assert pairing_coefficient(1) == -0.5

    def test_series_levels_stop_at_block_budget(self, exchange, monkeypatch):
        # the exchange series truncates at level 30: a budget of 31 levels
        # of the dim-2 block serves it, a budget of 29 levels refuses it
        inp = PairingInput(a=exchange.gamma.copy())
        for mod in (expectations, jlo):
            monkeypatch.setattr(mod, "MAX_BLOCK_ORDER", 2 * 31)
        val, trunc, _ = pairing_series(exchange, inp)
        assert trunc == 30
        assert abs(val - 2.0) < 1e-12
        for mod in (expectations, jlo):
            monkeypatch.setattr(mod, "MAX_BLOCK_ORDER", 2 * 29)
        with pytest.raises(ComplexityCap):
            pairing_series(exchange, inp)
        assert pairing_coefficient(2) == 0.75

    def test_blocked_pairing_eigendecomposes_once(self, exchange, monkeypatch):
        # the series and the index share one lift, and so one eigenbasis
        calls = []

        def counted(m, tol=1e-10):
            calls.append(m.shape)
            return eig_hermitian(m, tol)

        monkeypatch.setattr(triples, "eig_hermitian", counted)
        res = pairing(exchange, PairingInput(a=np.kron(np.eye(2), exchange.gamma), m=2))
        assert abs(res.value - 4.0) < 1e-8
        assert calls == [(4, 4)]

    def test_identity_input_gives_index(self, zero_mode):
        inp = PairingInput(a=np.eye(3, dtype=complex))
        val, trunc, tail = pairing_series(zero_mode, inp)
        assert val == pytest.approx(equivariant_index(zero_mode), abs=1e-12)
        assert trunc == 2  # first vanishing term stops the series

    def test_exchange_gamma_closed_form(self, exchange):
        inp = PairingInput(a=exchange.gamma.copy())
        series, _, _ = pairing_series(exchange, inp)
        quad = pairing_gaussian(exchange, inp)
        assert series == pytest.approx(2.0, abs=1e-9)
        assert quad == pytest.approx(2.0, abs=1e-10)

    def test_index_values(self, exchange, zero_mode):
        assert equivariant_index(exchange) == pytest.approx(0.0, abs=1e-14)
        assert equivariant_index(zero_mode) == pytest.approx(1.0, abs=1e-14)
        t = SpectralTriple(
            dim=2,
            Q=np.zeros((2, 2)),
            gamma=np.diag([1.0, -1.0]),
            group=[np.eye(2)],
        )
        assert equivariant_index(t) == pytest.approx(0.0, abs=1e-14)

    def test_negative_level_rejected(self, exchange, monkeypatch):
        # a negative cap is refused before either route runs, instead of
        # summing no terms into a series that looks converged
        def unreachable(*args, **kw):
            raise AssertionError("work started before the level check")

        monkeypatch.setattr(jlo, "pairing_gaussian", unreachable)
        monkeypatch.setattr(jlo, "_require_valid_input", unreachable)
        monkeypatch.setattr(expectations, "_simplex_levels", unreachable)
        inp = PairingInput(a=exchange.gamma.copy())
        for call in (
            lambda: pairing_series(exchange, inp, max_level=-1),
            lambda: pairing(exchange, inp, max_level=-3),
            lambda: repeated_expectation_series(exchange, inp.a, inp.a, -2),
        ):
            with pytest.raises(ValueError, match="must be nonnegative"):
                call()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 16),
        m=st.sampled_from([1, 2]),
        beta_plane=st.sampled_from([0.5, 1.0, 2.0]),
        group=st.sampled_from(["trivial", "z2"]),
        seed=st.integers(0, 10**6),
    )
    def test_series_matches_quadrature(self, dim, m, beta_plane, group, seed):
        # the two routes to the pairing agree to the selftest's C07 tolerance
        t = random_triple(dim, seed=seed, group=group)
        a = random_involution(t.lifted(m), np.random.default_rng(seed))
        res = pairing(t, PairingInput(a=a, m=m), beta_plane=beta_plane)
        assert abs(res.series_value - res.quadrature_value) < 1e-8

    def test_series_matches_quadrature_dim48(self):
        t = random_triple(48, seed=48)
        a = random_involution(t, np.random.default_rng(48))
        res = pairing(t, PairingInput(a=a))
        assert res.truncation_level > 0
        assert abs(res.series_value - res.quadrature_value) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_series_vs_gaussian(self, seed):
        t = random_triple(3, seed=seed + 60)
        a = random_involution(t, np.random.default_rng(seed))
        res = pairing(t, PairingInput(a=a))
        assert abs(res.series_value - res.quadrature_value) < 1e-8
        # reported errors cover the discrepancy
        assert abs(res.series_value - res.quadrature_value) <= res.tail_bound + 1e-10

    def test_block_m1_is_bitwise_scalar(self, exchange):
        inp1 = PairingInput(a=exchange.gamma.copy(), m=1)
        scalar = pairing_gaussian(exchange, inp1)
        again = pairing_gaussian(exchange, PairingInput(a=exchange.gamma.copy()))
        assert scalar == again

    def test_block_input_m2(self, exchange):
        a2 = np.kron(np.eye(2), exchange.gamma)
        res = pairing(exchange, PairingInput(a=a2, m=2))
        assert res.value == pytest.approx(4.0, abs=1e-9)

    def test_connes_average(self, zero_mode):
        a = np.eye(3, dtype=complex)
        res = pairing(zero_mode, PairingInput(a=a))
        idx = equivariant_index(zero_mode)
        assert res.connes_value == pytest.approx((res.value + idx) / 2, abs=1e-12)

    def test_involution_from_idempotent(self):
        p = np.diag([1.0, 0.0, 1.0])
        a = involution_from_idempotent(p)
        assert np.allclose(a @ a, np.eye(3))

    def test_invalid_input_rejected(self, zero_mode):
        bad = 2.0 * np.eye(3, dtype=complex)
        with pytest.raises(PairingInputInvalid):
            pairing_gaussian(zero_mode, PairingInput(a=bad))

    def test_group_invariance_required(self):
        t = random_triple(4, seed=61, group="z2")
        # gamma is group invariant; a non-invariant involution must fail
        rng = np.random.default_rng(62)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (raw + t.conj_gamma(raw)) / 2
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        a = (v * np.sign(w)) @ v.conj().T
        inp = PairingInput(a=a)
        rep = inp.validate(t)
        assert not rep.passed

    def test_no_convergence_on_short_budget(self):
        q = 3.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = SpectralTriple(dim=2, Q=q, gamma=np.diag([1.0, -1.0]), group=[np.eye(2)])
        inp = PairingInput(a=t.gamma.copy())
        with pytest.raises(NoConvergence):
            pairing_series(t, inp, max_level=6)

    def test_entire_decay_monitor(self, exchange):
        # n^(1/2) |tau_n(a,..,a)|^(1/n) decreasing over the computed range
        a = exchange.gamma.copy()
        da = derivative(exchange, a)
        series = repeated_expectation_series(exchange, a, da, 16)
        seq = [
            math.sqrt(n) * abs(series[n]) ** (1.0 / n)
            for n in range(2, 17, 2)
            if abs(series[n]) > 0
        ]
        assert all(b < a for a, b in zip(seq, seq[1:]))


class TestGaussHermite:
    @pytest.mark.parametrize("n", range(7))
    def test_even_moments(self, n):
        exact = math.factorial(2 * n) / (math.factorial(n) * 4.0**n)
        val = gauss_hermite_transform(lambda tt: tt ** (2 * n))
        assert val == pytest.approx(exact, abs=1e-10)

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            gauss_hermite_transform(lambda tt: math.cos(50.0 * tt), node_cap=64)

    def test_non_finite_rule_ends_doubling(self):
        # numpy's 512-node rule has NaN weights; the doubling stops there
        q = 12.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = SpectralTriple(dim=2, Q=q, gamma=np.diag([1.0, -1.0]), group=[np.eye(2)])
        with pytest.raises(NoConvergence, match="512-node rule is not finite"):
            pairing_gaussian(t, PairingInput(a=t.gamma.copy()))

    @pytest.mark.parametrize("quad_nodes", [10, 2000])
    def test_node_count_out_of_range(self, quad_nodes):
        with pytest.raises(ValueError, match="quad_nodes"):
            gauss_hermite_transform(lambda tt: 1.0, quad_nodes=quad_nodes)

    def test_rules_computed_once(self, monkeypatch):
        counts = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counted(n):
            counts.append(n)
            return hermgauss(n)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
        jlo._hermite_rule.cache_clear()
        for _ in range(2):
            assert gauss_hermite_transform(lambda tt: tt * tt) == pytest.approx(0.5)
        assert counts == [64, 128]

    def test_stack_budget_keeps_values(self, monkeypatch):
        # the stacks give the bits of one exponential per node, whatever
        # the number of nodes per stack
        t = random_triple(3, seed=54)
        a = random_involution(t, np.random.default_rng(55))
        inp = PairingInput(a=np.kron(np.eye(2), a), m=2)
        tb = t.lifted(2)
        h, da, front = tb.hamiltonian, tb.derive(inp.a), tb.twist(0) @ inp.a
        ts = np.polynomial.hermite.hermgauss(128)[0]
        per_node = [complex(np.trace(front @ expm(-h + 1j * tt * da))) for tt in ts]
        shapes = []

        def recorded(m):
            shapes.append(m.shape)
            return expm(m)

        monkeypatch.setattr(jlo, "expm", recorded)
        stacked = jlo._integrand(tb, inp, h)(ts)
        assert shapes == [(128, 6, 6)]
        monkeypatch.setattr(jlo, "_STACK_ENTRIES", 1)
        shapes.clear()
        sliced = jlo._integrand(tb, inp, h)(ts)
        assert shapes == [(1, 6, 6)] * 128
        assert np.array_equal(stacked, per_node)
        assert np.array_equal(sliced, per_node)


class TestCoboundaryPairing:
    def test_zero_cochain(self, zero_mode):
        from heatchern.cochains import Cochain

        zero = Cochain(lambda n, mats, g: 0.0j, zero_mode.group, 10, "mixed", "C")
        inp = PairingInput(a=np.eye(3, dtype=complex))
        assert coboundary_pairing_residual(zero_mode, zero, inp) == 0.0

    def test_random_cochain(self, exchange):
        G = random_cochain(exchange, seed=70, max_level=15)
        inp = PairingInput(a=exchange.gamma.copy())
        assert coboundary_pairing_residual(exchange, G, inp, max_level=14) < 1e-8

    def test_block_diagonal_input_doubles_the_residual(self, exchange):
        # only the two diagonal blocks of kron(I_2, a) give nonzero tuples;
        # a cut at level 2 leaves an uncancelled B-term, so the value is not 0
        G = random_cochain(exchange, seed=70, max_level=3)
        a = exchange.gamma.copy()
        one = coboundary_pairing_residual(exchange, G, PairingInput(a=a), max_level=2)
        block = PairingInput(a=np.kron(np.eye(2), a), m=2)
        two = coboundary_pairing_residual(exchange, G, block, max_level=2)
        assert one > 1e-2
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_character_cochain(self, exchange):
        tau = jlo_cochain(exchange, max_level=13)
        inp = PairingInput(a=exchange.gamma.copy())
        assert coboundary_pairing_residual(exchange, tau, inp, max_level=12) < 1e-8
