import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern import expectations, homotopy, jlo, linalg, triples
from heatchern.cochains import random_cochain
from heatchern.errors import ComplexityCap, NoConvergence, Overflow, PairingInputInvalid
from heatchern.expectations import repeated_expectation_series
from heatchern.linalg import eig_hermitian, expm, opnorm
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
from heatchern.models import random_even_element, random_involution, random_triple
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
    def test_plane_beta_component_is_the_lift(self, tuple_sum, kind, beta):
        # oracle: beta^{-n/2} <a_0, da_1, ..., da_n> on the simplex of size beta
        if kind == "plain":
            t = random_triple(4, seed=54, group="z2")
        else:
            t, _ = build_n2_susy_example(levels=((1.0, 0.5), (2.0, 1.0)))
        rng = np.random.default_rng(55)
        for n in range(5):
            mats = even_tuple(t, rng, n + 1)
            verts = [mats[0]] + [t.derive(a) for a in mats[1:]]
            oracle = beta ** (-n / 2.0) * tuple_sum(t, verts, beta=beta)
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
        # J(t) = sum (-t^2)^n tau_2n(a,...,a) with the levels read off circles
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

    def test_coefficients_stay_finite(self, exchange):
        # float (2n)! overflowed from n = 86; the exact integer ratio keeps
        # the weights of the default levels bit for bit
        for n in range(17):
            assert pairing_coefficient(n) == (
                (-0.25) ** n * math.factorial(2 * n) / math.factorial(n)
            )
        assert math.isfinite(pairing_coefficient(171))
        with pytest.raises(ValueError, match="max_level 343 exceeds 342"):
            pairing_series(exchange, PairingInput(a=exchange.gamma.copy()), max_level=343)

    def test_series_levels_stop_at_sample_budget(self, exchange, monkeypatch):
        # the exchange series truncates at level 28, read off circles of 29
        # samples at dim 2: a budget of 29 samples serves it, 28 refuse it
        inp = PairingInput(a=exchange.gamma.copy())
        _, circles = jlo._Prepared(exchange, inp).series_plan(32, 1e-12)
        assert sum(c.points for c in circles) == 29
        monkeypatch.setattr(expectations, "MAX_SAMPLES", 29)
        val, trunc, _ = pairing_series(exchange, inp)
        assert trunc == 28
        assert abs(val - 2.0) < 1e-12
        monkeypatch.setattr(expectations, "MAX_SAMPLES", 28)
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
        assert trunc == 0  # da = 0, so the tail after level 0 is 0
        assert tail <= 1e-12

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

    def test_budget_checked_before_any_exponential(self, exchange, zero_mode, monkeypatch):
        # the exchange series needs 29 samples at dim 2, and the zero-mode
        # series with a = I one sample at dim 3: budgets of 28 samples, and
        # of work 2^3 < 1 * 3^3, refuse them before either route runs
        calls, taylor = [], linalg._taylor
        monkeypatch.setattr(linalg, "_taylor", lambda x: calls.append(x) or taylor(x))
        inp = PairingInput(a=exchange.gamma.copy())
        monkeypatch.setattr(expectations, "MAX_SAMPLES", 28)
        with pytest.raises(ComplexityCap, match="the series takes 29 samples, over the budget 28"):
            pairing(exchange, inp)
        monkeypatch.setattr(expectations, "MAX_SAMPLES", 2)
        with pytest.raises(ComplexityCap, match=r"points\*dim\^3 = 27 exceeds budget 2\^3"):
            pairing(zero_mode, PairingInput(a=np.eye(3, dtype=complex)))
        assert calls == []

    def test_overflowing_series_bound_is_named(self):
        # H = Q^2 is finite, but ||da||^2 is not: both the pairing and the
        # series alone raise Overflow, not a bare OverflowError
        g = np.diag([1.0, 1.0, -1.0, -1.0])
        q = np.zeros((4, 4))
        q[:2, 2:] = [[1.0, 2.0], [0.5, 1.0]]
        q[2:, :2] = q[:2, 2:].T
        t = SpectralTriple(dim=4, Q=1e150 * q, gamma=g, group=[np.eye(4)])
        a = np.eye(4)
        a[:2, :2] = [[1.0, 1e10], [0.0, -1.0]]
        for call in (pairing, pairing_series):
            with pytest.raises(Overflow, match="series bound"):
                call(t, PairingInput(a=a))

    @pytest.mark.filterwarnings("error")
    def test_graded_parts_stay_finite(self, exchange):
        # H = 1e308 I is finite, but H + gamma H gamma is not: the graded
        # parts warned and came out NaN, and the pairing ended in ValueError.
        # Formed as halves they keep H's bits, and the exponential of its
        # 1-norm, past 2^1022, is refused by name
        t = exchange.lifted(1, 1e308)
        inp = PairingInput(a=np.eye(2, dtype=complex))
        front, minus_h, da = jlo._Prepared(t, inp).graded
        assert np.array_equal(minus_h, -t.hamiltonian)
        assert np.array_equal(front, t.gamma) and not da.any()
        for call in (pairing, pairing_gaussian, pairing_series):
            with pytest.raises(Overflow, match="matrix 1-norm 1.000e\\+308"):
                call(t, inp)

    def test_pairing_validates_once(self, exchange, monkeypatch):
        calls = []
        validate = PairingInput.validate

        def counted(inp, t):
            calls.append(t)
            return validate(inp, t)

        monkeypatch.setattr(PairingInput, "validate", counted)
        res = pairing(exchange, PairingInput(a=np.kron(np.eye(2), exchange.gamma), m=2))
        assert abs(res.value - 4.0) < 1e-8
        assert calls == [exchange]

    @pytest.mark.parametrize("route", [pairing_gaussian, pairing_series])
    def test_routes_alone_validate_after_a_pairing(self, exchange, route):
        # a route called alone validates its input, also with the (t, inp)
        # of a pairing that just returned or raised: the input is made
        # invalid in place, so a leaked prepared pass would skip the check
        inp = PairingInput(a=exchange.gamma.copy())
        with pytest.raises(PairingInputInvalid):
            route(exchange, PairingInput(a=2.0 * np.eye(2)))
        pairing(exchange, inp)
        inp.a = 2.0 * np.eye(2, dtype=complex)
        with pytest.raises(PairingInputInvalid):
            route(exchange, inp)
        # the 537-node rule is not finite: the pairing raises after its validation
        t, inp = _exchange(20.0)
        with pytest.raises(NoConvergence):
            pairing(t, inp)
        inp.a = 2.0 * np.eye(2, dtype=complex)
        with pytest.raises(PairingInputInvalid):
            route(t, inp)

    @pytest.mark.parametrize("route", [pairing_gaussian, pairing_series])
    def test_routes_on_other_data_inside_a_pairing_validate(self, exchange, route, monkeypatch):
        # a hook that calls a route on another input while a pairing runs
        # gets that input validated, not the pairing's prepared pass
        gaussian, seen = jlo.pairing_gaussian, []

        def hook(t, inp, **kw):
            with pytest.raises(PairingInputInvalid):
                route(t, PairingInput(a=2.0 * np.eye(2)))
            seen.append(inp)
            return gaussian(t, inp, **kw)

        monkeypatch.setattr(jlo, "pairing_gaussian", hook)
        inp = PairingInput(a=exchange.gamma.copy())
        assert abs(pairing(exchange, inp).value - 2.0) < 1e-10
        assert seen == [inp]

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
        res = pairing(t.lifted(1, beta_plane), PairingInput(a=a, m=m))
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

    def test_check_names_in_order(self):
        t = random_triple(3, seed=5, group="z2")
        inp = PairingInput(a=np.kron([[0, 1], [1, 0]], np.eye(3)), m=2)
        assert [c.name for c in inp.validate(t).checks] == [
            "a^2 = I",
            "gamma a gamma = a",
            "a commutes with group[0]",
            "a commutes with group[1]",
        ]

    def test_invalid_input_rejected(self, zero_mode):
        bad = 2.0 * np.eye(3, dtype=complex)
        with pytest.raises(PairingInputInvalid):
            pairing_gaussian(zero_mode, PairingInput(a=bad))

    @pytest.mark.filterwarnings("error")
    def test_residual_past_the_float_range_reads_inf(self, exchange):
        # a @ a overflowed with a RuntimeWarning and read "residual nan"
        rep = PairingInput(a=np.diag([1e308, 1.0])).validate(exchange)
        assert [(c.name, c.residual) for c in rep.failures] == [("a^2 = I", math.inf)]
        with pytest.raises(PairingInputInvalid, match="a\\^2 = I: residual inf"):
            pairing(exchange, PairingInput(a=np.diag([1e308, 1.0])))

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
        # the series stops at max_level and its tail bound covers the error
        q = 3.0 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = SpectralTriple(dim=2, Q=q, gamma=np.diag([1.0, -1.0]), group=[np.eye(2)])
        inp = PairingInput(a=t.gamma.copy())
        val, trunc, tail = pairing_series(t, inp, max_level=6)
        assert trunc == 6
        assert abs(val - 2.0) > 1.0
        assert abs(val - 2.0) <= tail

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_series_tol_must_be_positive_and_finite(self, exchange, tol):
        inp = PairingInput(a=exchange.gamma.copy())
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            pairing_series(exchange, inp, tol=tol)

    def test_series_takes_one_exponential(self, exchange, monkeypatch):
        # the exchange series needs 29 levels, all from one stack of dim-2
        # exponentials at the samples of its circles, and one FFT per circle
        inp = PairingInput(a=exchange.gamma.copy())
        _, circles = jlo._Prepared(exchange, inp).series_plan(32, 1e-12)
        shapes, ffts = [], []

        def recorded(m, **kw):
            shapes.append(m.shape)
            return expm(m, **kw)

        fft = np.fft.fft
        monkeypatch.setattr(linalg, "expm", recorded)
        monkeypatch.setattr(np.fft, "fft", lambda v: ffts.append(v.size) or fft(v))
        _, trunc, _ = pairing_series(exchange, inp)
        assert trunc > 16
        assert shapes == [(sum(c.points for c in circles), 2, 2)]
        assert ffts == [c.points for c in circles]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 16),
        m=st.sampled_from([1, 2]),
        beta_plane=st.sampled_from([0.5, 1.0, 2.0]),
        group=st.sampled_from(["trivial", "z2"]),
        seed=st.integers(0, 10**6),
    )
    def test_routes_match_the_closed_form(self, dim, m, beta_plane, group, seed):
        # a plain pairing is its value at Q = 0, Tr(gamma U(g) a); the
        # series is within its reported tail, also where max_level binds
        t = random_triple(dim, seed=seed, group=group).lifted(1, beta_plane)
        a = random_involution(t.lifted(m), np.random.default_rng(seed))
        tb = t.lifted(m)
        for g in range(len(tb.group)):
            inp = PairingInput(a=a, m=m, g=g)
            exact = complex(np.trace(tb.twist(g) @ a))
            assert abs(pairing_gaussian(t, inp) - exact) <= 1e-10
            for max_level in (8, 32):
                series, _, tail = pairing_series(t, inp, max_level=max_level)
                assert abs(series - exact) <= tail

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


HEAT_DATA_KINDS = ["triple", "m2-lift", "beta-lift", "split", "regularized"]


def _heat_data_of_kind(kind, dim, g, seed):
    """Heat data of one of the five kinds of ``HeatData`` and a pairing input."""
    rng = np.random.default_rng(seed)
    if kind == "split":
        s, _ = build_n2_susy_example(levels=((1.0, 0.5), (2.5, 0.5)), taus=(0.0, 0.7))
        return s, PairingInput(a=random_involution(s, rng), g=g)
    t = random_triple(dim, seed=seed, group="z2")
    if kind == "regularized":
        z = random_even_element(t, rng, group_invariant=True)
        t = homotopy._Regularized(t.dim, t.Q, t.gamma, t.group, t.tol, R=z.conj().T @ z)
    elif kind == "beta-lift":
        t = t.lifted(1, 2.0)
    m = 2 if kind == "m2-lift" else 1
    return t, PairingInput(a=random_involution(t.lifted(m), rng), m=m, g=g)


def _cut_case(case):
    """Heat data and a pairing input at the edges of the rule's bound: a
    random z2 input, a non-Hermitian a, and an H with negative eigenvalues."""
    rng = np.random.default_rng(7)
    if case == "regularized-negative":
        # H = Q^2 + R with R negative on some vectors: lambda_min < 0
        t = random_triple(6, seed=8)
        z = random_even_element(t, rng, group_invariant=True)
        r = z.conj().T @ z - 0.7 * np.eye(6)
        t = homotopy._Regularized(t.dim, t.Q, t.gamma, t.group, t.tol, R=r)
        return t, PairingInput(a=random_involution(t, rng))
    t = random_triple(6, seed=9, group="z2")
    a = random_involution(t, rng)
    if case == "non-hermitian":
        # P a P^-1 with an even, invariant, non-unitary P is still an involution
        e = random_even_element(t, rng, group_invariant=True)
        p = np.eye(6) + 0.4 * e / opnorm(e)
        a = p @ a @ np.linalg.inv(p)
        assert opnorm(a - a.conj().T) > 0.1
    return t, PairingInput(a=a, g=1)


CUT_CASES = ["random", "non-hermitian", "regularized-negative"]


def _exchange(q):
    """The exchange triple with Q = q X and the input a = gamma; the pairing is 2."""
    x = q * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    t = SpectralTriple(dim=2, Q=x, gamma=np.diag([1.0, -1.0]), group=[np.eye(2)])
    return t, PairingInput(a=t.gamma.copy())


def _rule_value(prep, nodes):
    """The ``nodes``-point Gauss-Hermite rule on the graded integrand, at every node."""
    ts, ws = np.polynomial.hermite.hermgauss(nodes)
    values = linalg.exp_traces(*prep.graded, 1j * ts)
    return complex(ws @ values) / math.sqrt(math.pi)


BOUND_INPUTS = [("kind", kind, dim, g) for kind in HEAT_DATA_KINDS for dim in (2, 5, 9)
                for g in (0, 1)] + [("cut", case, 6, 0) for case in CUT_CASES]


class TestRuleBound:
    @pytest.mark.parametrize("source, kind, dim, g", BOUND_INPUTS)
    def test_n_node_rule_within_the_series_tail(self, source, kind, dim, g):
        # the n-node rule is exact on t^{2k}, k < n, and between 0 and the
        # moment beyond, so it errs by at most the tail after level 2(n - 1)
        if source == "kind":
            t, inp = _heat_data_of_kind(kind, dim, g, seed=17 * dim + g)
        else:
            t, inp = _cut_case(kind)
        prep = jlo._Prepared(t, inp)
        log_s, x = prep.bound
        tb = t.lifted(inp.m)
        if kind in ("split", "regularized", "regularized-negative"):
            reference = _rule_value(prep, 300)
        else:  # a plain pairing is its Q = 0 value
            reference = complex(np.trace(tb.twist(inp.g) @ inp.a))
        slack = 1e-13 * math.exp(log_s + x)
        for n in range(1, 41):
            err = abs(_rule_value(prep, n) - reference)
            assert err <= jlo._tail_after(n - 1, log_s, x) + slack, n

    @pytest.mark.parametrize("q", [12.0, 16.0])
    def test_large_exchange_converges(self, q):
        # numpy's rules are finite up to 371 nodes; these plans take 229 and 367
        t, inp = _exchange(q)
        assert jlo._Prepared(t, inp).level(1e-10) + 1 == {12.0: 229, 16.0: 367}[q]
        res = pairing(t, inp)
        assert abs(res.value - 2.0) <= 1e-12

    @pytest.mark.parametrize(
        "q, message",
        [
            (20.0, "the 537-node rule that tol 1e-10 needs is not finite"),
            (30.0, r"the tail bound after 1024 nodes, .*, is not below tol 1e-10"),
        ],
    )
    @pytest.mark.parametrize("route", [pairing_gaussian, pairing])
    def test_no_rule_raises_before_any_exponential(self, monkeypatch, q, message, route):
        # every exponential, stacked or single, runs the Taylor core
        calls, taylor = [], linalg._taylor
        monkeypatch.setattr(linalg, "_taylor", lambda x: calls.append(x) or taylor(x))
        t, inp = _exchange(q)
        with pytest.raises(NoConvergence, match=message):
            route(t, inp)
        assert calls == []

    def test_one_level_fixes_both_routes(self, exchange, monkeypatch):
        # at tol 1e-12 the series stops at level 2K = 28 and the quadrature
        # takes the 15-node rule: one stack of 8 exponentials at its nodes
        # t >= 0; the series then takes one stack at the samples of its circles
        inp = PairingInput(a=exchange.gamma.copy())
        _, circles = jlo._Prepared(exchange, inp).series_plan(32, 1e-12)
        shapes = []

        def recorded(m, **kw):
            shapes.append(m.shape)
            return expm(m, **kw)

        monkeypatch.setattr(linalg, "expm", recorded)
        res = pairing(exchange, inp, tol=1e-12)
        assert res.truncation_level == 28
        assert shapes == [(8, 2, 2), (sum(c.points for c in circles), 2, 2)]
        assert abs(res.value - 2.0) <= 1e-12


class TestGaussHermite:
    @pytest.mark.parametrize("n", range(7))
    def test_even_moments(self, n):
        exact = math.factorial(2 * n) / (math.factorial(n) * 4.0**n)
        val = gauss_hermite_transform(lambda tt: tt ** (2 * n))
        assert val == pytest.approx(exact, abs=1e-10)

    def test_general_transform_keeps_every_node(self):
        # f is not even: its odd part cancels rather than doubling
        assert gauss_hermite_transform(lambda tt: tt**3 + tt**2) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_fold_halves_the_exponentials(self, exchange, monkeypatch):
        # one stack, of the ceil((K+1)/2) nodes t >= 0 of the (K+1)-node
        # rule: t = 0 once when K+1 is odd (15 nodes at tol 1e-12)
        shapes = []

        def recorded(m, **kw):
            shapes.append(m.shape)
            return expm(m, **kw)

        monkeypatch.setattr(linalg, "expm", recorded)
        inp = PairingInput(a=exchange.gamma.copy())
        for tol, nodes in ((1e-10, 14), (1e-12, 15), (1e-6, 10)):
            shapes.clear()
            assert jlo._Prepared(exchange, inp).level(tol) + 1 == nodes
            assert abs(pairing_gaussian(exchange, inp, tol=tol) - 2.0) <= tol
            assert shapes == [((nodes + 1) // 2, 2, 2)]

    @pytest.mark.parametrize("dim", [6, 12, 24])
    def test_nearly_graded_inputs_stay_put(self, dim):
        # grading residuals of 3e-11 pass validation; the fold takes the
        # graded parts, so they move the pairing by their square only
        t = random_triple(dim, seed=dim)
        rng = np.random.default_rng(100 + dim)
        a = random_involution(t, rng)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw = raw + raw.conj().T
        odd = (raw - t.conj_gamma(raw)) / 2.0
        even = (raw + t.conj_gamma(raw)) / 2.0
        odd *= 3e-11 / opnorm(odd)
        even *= 3e-11 * opnorm(t.Q) / opnorm(even)
        near = SpectralTriple(dim=dim, Q=t.Q + even, gamma=t.gamma, group=t.group)
        near_inp = PairingInput(a=a + odd)
        assert triples.validate_triple(near).passed
        assert near_inp.validate(near).passed
        exact = pairing_gaussian(t, PairingInput(a=a))
        assert abs(pairing_gaussian(near, near_inp) - exact) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(HEAT_DATA_KINDS),
        dim=st.integers(2, 12),
        g=st.sampled_from([0, 1]),
        seed=st.integers(0, 10**6),
    )
    def test_graded_integrand_is_even(self, kind, dim, g, seed):
        t, inp = _heat_data_of_kind(kind, dim, g, seed)
        ts = np.polynomial.hermite.hermgauss(64)[0][32:]
        graded = jlo._Prepared(t, inp).graded
        plus, minus = linalg.exp_traces(*graded, 1j * ts), linalg.exp_traces(*graded, -1j * ts)
        assert np.max(np.abs(plus - minus)) <= 1e-14 * np.max(np.abs(plus))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(HEAT_DATA_KINDS),
        dim=st.integers(2, 12),
        g=st.sampled_from([0, 1]),
        seed=st.integers(0, 10**6),
    )
    def test_fold_matches_the_full_rule(self, kind, dim, g, seed):
        # the raw integrand at every node of the same (K+1)-node rule is the reference
        t, inp = _heat_data_of_kind(kind, dim, g, seed)
        prep = jlo._Prepared(t, inp)
        ts, ws = np.polynomial.hermite.hermgauss(prep.level(1e-10) + 1)
        values = linalg.exp_traces(prep.front, -prep.h, prep.da, 1j * ts)
        full = complex(ws @ values) / math.sqrt(math.pi)
        assert abs(pairing_gaussian(t, inp) - full) <= 1e-14 * max(1.0, abs(full))

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            gauss_hermite_transform(lambda tt: math.cos(50.0 * tt))

    def test_non_finite_rule_ends_doubling(self):
        # numpy's rules are not finite from 372 nodes: a transform that
        # doubles from 300 nodes stops at the 600-node rule
        with pytest.raises(NoConvergence, match="600-node rule is not finite"):
            gauss_hermite_transform(lambda tt: math.cos(50.0 * tt), quad_nodes=300)

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

        def recorded(m, **kw):
            shapes.append(m.shape)
            return expm(m, **kw)

        monkeypatch.setattr(linalg, "expm", recorded)
        stacked = linalg.exp_traces(front, -h, da, 1j * ts)
        assert shapes == [(128, 6, 6)]
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 1)
        shapes.clear()
        sliced = linalg.exp_traces(front, -h, da, 1j * ts)
        assert shapes == [(1, 6, 6)] * 128
        assert np.array_equal(stacked, per_node)
        assert np.array_equal(sliced, per_node)


def _unit_da_pair(dim, m, seed):
    """A pair as perfbench's generator makes them: a random triple and an
    m-blocked involution, with Q scaled so that ||da|| = 1 on the lift."""
    t = random_triple(dim, seed=seed)
    a = random_involution(t.lifted(m), np.random.default_rng(seed))
    q = t.Q / opnorm(t.lifted(m).derive(a))
    return SpectralTriple(dim=dim, Q=q, gamma=t.gamma, group=list(t.group)), PairingInput(a=a, m=m)


class TestClosedFormAtScale:
    @pytest.mark.parametrize("dim, m", [(24, 1), (48, 1), (96, 1), (128, 1), (48, 2)])
    def test_pair_matches_the_closed_form(self, dim, m, monkeypatch):
        # the closed form Tr(gamma U(g) a) shares neither the bound, the
        # plan, the graded parts nor the exponentials of the two routes;
        # every exponential the pairing takes is of the lift's order, and
        # its peak memory stays below one block matrix of the series' levels
        orders = []
        taylor = linalg._taylor
        monkeypatch.setattr(linalg, "_taylor", lambda x: orders.append(x.shape[-1]) or taylor(x))
        t, inp = _unit_da_pair(dim, m, seed=dim)
        tracemalloc.start()
        try:
            res = pairing(t, inp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        exact = complex(np.trace(t.lifted(m).twist(0) @ inp.a))
        assert abs(res.value - exact) <= 1e-8
        assert abs(res.series_value - exact) <= res.tail_bound
        assert set(orders) == {m * dim}
        assert peak < 16 * ((res.truncation_level + 1) * m * dim) ** 2

    def test_no_block_engine(self):
        assert not hasattr(linalg, "expm_toeplitz_row")
        assert not hasattr(expectations, "_toeplitz_row")


class TestCoboundaryPairing:
    def test_zero_cochain(self, zero_mode):
        from heatchern.cochains import Cochain

        zero = Cochain(lambda n, mats, g: 0.0j, zero_mode.group, 10, "C")
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
