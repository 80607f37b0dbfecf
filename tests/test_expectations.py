import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern import expectations
from heatchern.errors import BadExponent, ComplexityCap, DimensionMismatch
from heatchern.expectations import (
    MAX_BLOCK_ORDER,
    VertexSet,
    beta_fn,
    bound_expectation,
    bounded_vertex_bound,
    check_cyclic,
    check_d_invariance,
    check_insert_identity,
    duhamel_commutator,
    expectation_value,
    heat_expectation,
    repeated_expectation_series,
)
from heatchern.linalg import opnorm
from heatchern.models import exchange_triple, random_triple
from heatchern.triples import SpectralTriple, VertexType, derivative


def rand_mats(rng, dim, count):
    return [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(count)
    ]


class TestBetaFn:
    def test_paper_values(self):
        assert beta_fn([1, 1, 1]) == pytest.approx(0.5, abs=1e-14)
        assert beta_fn([0.5, 1]) == pytest.approx(2.0, abs=1e-13)
        assert beta_fn([0.5, 0.5, 1]) == pytest.approx(math.pi, abs=1e-12)

    def test_general_n_families(self):
        # and the closed forms for longer tails of ones
        for n in range(1, 6):
            ones = [1.0] * (n + 1)
            assert beta_fn(ones) == pytest.approx(1.0 / math.factorial(n), rel=1e-13)
            half = [0.5] + [1.0] * n
            expected = 4.0**n * math.factorial(n) / math.factorial(2 * n)
            assert beta_fn(half) == pytest.approx(expected, rel=1e-12)
        for n in range(2, 6):
            halves = [0.5, 0.5] + [1.0] * (n - 1)
            assert beta_fn(halves) == pytest.approx(
                math.pi / math.factorial(n - 1), rel=1e-12
            )

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            beta_fn([1.0, 0.0])


class TestHeatExpectation:
    @pytest.mark.parametrize("n", range(5))
    def test_identity_vertices(self, zero_mode, n):
        val = expectation_value(zero_mode, [np.eye(3)] * (n + 1))
        expected = zero_mode.heat_trace(0) / math.factorial(n)
        assert abs(val - expected) < 1e-12

    def test_single_vertex(self, zero_mode, rng):
        a = rand_mats(rng, 3, 1)[0]
        val = expectation_value(zero_mode, [a])
        lam, v = zero_mode.heat_data()
        direct = np.trace(
            zero_mode.gamma @ a @ v @ np.diag(np.exp(-lam)) @ v.conj().T
        )
        assert abs(val - direct) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_vs_quadrature(self, rng, n):
        t = random_triple(4, seed=21 + n)
        mats = rand_mats(rng, 4, n + 1)
        exact = heat_expectation(t, mats, method="exact")
        mc = heat_expectation(t, mats, method="quadrature", samples=60_000, seed=5)
        assert abs(exact.value - mc.value) <= mc.estimated_error

    def test_quadrature_is_seed_deterministic(self, rng):
        t = random_triple(3, seed=2)
        mats = rand_mats(rng, 3, 2)
        a = heat_expectation(t, mats, method="quadrature", samples=2000, seed=9)
        b = heat_expectation(t, mats, method="quadrature", samples=2000, seed=9)
        assert a.value == b.value

    @pytest.mark.parametrize("samples", [0, -5])
    def test_quadrature_needs_a_sample(self, rng, samples):
        # 0 used to raise ZeroDivisionError and -5 to return 0 with error 0.0
        t = random_triple(3, seed=2)
        with pytest.raises(ValueError, match=f"samples >= 1, got {samples}"):
            heat_expectation(t, rand_mats(rng, 3, 2), method="quadrature", samples=samples)

    def test_quadrature_block_within_budget(self):
        # the blocks used to be 4096 points at any dim: a 516 MB peak at dim 64;
        # the value is the one those blocks gave, summed in other groups
        t = random_triple(64, seed=5)
        rng = np.random.default_rng(64)
        raw = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        x = (raw + t.gamma @ raw @ t.gamma) / 2
        t.heat_data()
        tracemalloc.start()
        try:
            ev = heat_expectation(
                t, [x, x.conj().T.copy()], method="quadrature", samples=4096
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        reference = 88.13919631381114 + 6.0995296218274405e-15j
        assert abs(ev.value - reference) <= 1e-12 * abs(reference)

    def test_beta_plane_scaling_consistency(self, rng, tuple_sum):
        # the beta-plane value equals the plane-1 engine of the rescaled
        # generator, times beta^n, and the lift is that rescaled generator
        t = random_triple(4, seed=4)
        beta = 1.7
        scaled = SpectralTriple(
            dim=4,
            Q=math.sqrt(beta) * t.Q,
            gamma=t.gamma,
            group=list(t.group),
            tol=t.tol,
        )
        mats = rand_mats(rng, 4, 3)
        n = len(mats) - 1
        lhs = tuple_sum(t, mats, beta=beta)
        rhs = beta**n * expectation_value(scaled, mats)
        assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1.0)
        lifted = beta**n * expectation_value(t.lifted(1, beta), mats)
        assert abs(lifted - rhs) < 1e-12 * max(abs(rhs), 1.0)

    def test_odd_derivative_lists_vanish(self, rng):
        t = random_triple(4, seed=6)
        for n in (1, 3):
            mats = []
            for raw in rand_mats(rng, 4, n + 1):
                mats.append((raw + t.conj_gamma(raw)) / 2)
            verts = [mats[0]] + [derivative(t, a) for a in mats[1:]]
            assert abs(expectation_value(t, verts)) < 1e-12

    def test_complexity_cap(self, zero_mode):
        # a request whose block order (n+1)*dim exceeds the budget is
        # refused before the block matrix is allocated
        n = MAX_BLOCK_ORDER // zero_mode.dim
        assert (n + 1) * zero_mode.dim > MAX_BLOCK_ORDER
        with pytest.raises(ComplexityCap):
            expectation_value(zero_mode, [np.eye(3)] * (n + 1))
        with pytest.raises(ComplexityCap):
            repeated_expectation_series(zero_mode, np.eye(3), np.eye(3), n)

    def test_group_index_out_of_range(self, zero_mode):
        # negative indices are refused, not wrapped to the last element
        with pytest.raises(DimensionMismatch):
            expectation_value(zero_mode, [np.eye(3)], g=-1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 3),
        n=st.integers(0, 4),
        seed=st.integers(0, 10**6),
        q_scale=st.sampled_from([1.0, 6.0]),
        beta=st.sampled_from([0.6, 1.0, 1.7]),
    )
    def test_matches_tuple_sum(self, tuple_sum, dim, n, seed, q_scale, beta):
        # q_scale 6 lifts the dim-2 spectrum to lambda_min = 36, where the
        # values reach 1e-26; each must still match to 1e-12 relative
        base = random_triple(dim, seed=seed % 1000)
        t = SpectralTriple(
            dim=dim, Q=q_scale * base.Q, gamma=base.gamma, group=list(base.group)
        )
        mats = rand_mats(np.random.default_rng(seed), dim, n + 1)
        ref = tuple_sum(t, mats, beta=beta)
        got = beta**n * expectation_value(t.lifted(1, beta), mats)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_deep_series_on_scalar_heat_kernel(self):
        # Q^2 = s I: <front, x, ..., x>_n = e^{-s beta} beta^n/n! Tr(front x^n).
        # ||da|| = 3 puts level 32 some 20 orders of magnitude below
        # level 0, which only the balanced superdiagonal resolves.
        base = exchange_triple()
        t = SpectralTriple(
            dim=2, Q=1.5 * base.Q, gamma=base.gamma, group=list(base.group)
        )
        a = t.gamma.copy()
        da = derivative(t, a)
        assert opnorm(da) == pytest.approx(3.0, rel=1e-14)
        s = 2.25
        for beta in (1.0, 0.7):
            raw = repeated_expectation_series(t.lifted(1, beta), a, da, 32)
            series = [beta**n * v for n, v in enumerate(raw)]
            front = t.gamma @ a
            for n in range(33):
                exact = (
                    math.exp(-s * beta) * beta**n / math.factorial(n)
                    * np.trace(front @ np.linalg.matrix_power(da, n))
                )
                if n % 2:
                    assert exact == 0
                    assert abs(series[n]) < 1e-15
                else:
                    assert abs(series[n] - exact) <= 1e-11 * abs(exact)

    @pytest.mark.parametrize(
        "dim, n, beta",
        [pytest.param(4, n, 1.3, id=str(n)) for n in range(5)]
        + [
            pytest.param(dim, n, beta, id=f"d{dim}-n{n}-b{beta}")
            for dim, n in [(1, 24), (2, 24), (3, 20), (5, 12), (6, 10), (7, 8), (8, 12)]
            for beta in (0.6, 1.3)
        ],
    )
    def test_repeated_series_matches_generic(self, rng, monkeypatch, dim, n, beta):
        # every level of the block-Toeplitz first row against the bidiagonal
        # exponential of that level alone
        t = random_triple(dim, seed=31)
        a0, x = rand_mats(rng, dim, 2)
        with monkeypatch.context() as mp:
            # the series never exponentiates the full block matrix
            mp.setattr(expectations, "expm", None)
            series = repeated_expectation_series(t.lifted(1, beta), a0, x, n)
        assert len(series) == n + 1
        for k in range(n + 1):
            direct = beta**k * expectation_value(t.lifted(1, beta), [a0] + [x] * k)
            assert abs(beta**k * series[k] - direct) < 1e-11 * max(abs(direct), 1.0)


class TestSymmetries:
    def test_insert_identity_small(self, rng):
        t = random_triple(4, seed=8)
        assert check_insert_identity(t, rand_mats(rng, 4, 2)) < 1e-10

    def test_insert_identity_level_zero(self, zero_mode):
        # <I> = sum of the two insertions at level one
        assert check_insert_identity(zero_mode, [np.eye(3)]) < 1e-12

    def test_insert_identity_quadrature(self, rng):
        t = random_triple(3, seed=12)
        mats = rand_mats(rng, 3, 2)
        lhs = heat_expectation(t, mats, method="quadrature", samples=200_000, seed=3)
        rhs_val = 0.0
        rhs_err = 0.0
        for j in (1, 2):
            ins = mats[:j] + [np.eye(3)] + mats[j:]
            ev = heat_expectation(
                t, ins, method="quadrature", samples=200_000, seed=100 + j
            )
            rhs_val += ev.value
            rhs_err += ev.estimated_error
        assert abs(lhs.value - rhs_val) <= lhs.estimated_error + rhs_err

    def test_cyclic_level_zero_exact(self, zero_mode, rng):
        a = rand_mats(rng, 3, 1)[0]
        assert check_cyclic(zero_mode, [a]) < 1e-13

    def test_cyclic_random(self, rng):
        t = random_triple(3, seed=14)
        assert check_cyclic(t, rand_mats(rng, 3, 3)) < 1e-10

    def test_cyclic_with_group(self, rng):
        t = random_triple(4, seed=15, group="z2")
        assert check_cyclic(t, rand_mats(rng, 4, 2), g=1) < 1e-10

    def test_d_invariance_identities(self, zero_mode):
        assert check_d_invariance(zero_mode, [np.eye(3)] * 3) < 1e-13

    def test_d_invariance_random(self, rng):
        t = random_triple(4, seed=16)
        assert check_d_invariance(t, rand_mats(rng, 4, 3)) < 1e-9

    def test_d_invariance_level_zero(self, rng):
        t = random_triple(4, seed=17)
        assert check_d_invariance(t, rand_mats(rng, 4, 1)) < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 6),
        group=st.sampled_from(["trivial", "z2"]),
        n=st.integers(0, 3),
        seed=st.integers(0, 10**6),
    )
    def test_identities_hold(self, dim, group, n, seed):
        # insert, cyclic and d-invariance on unit-norm vertices, at every
        # group element; the largest over 200 draws was below 1e-15
        t = random_triple(dim, seed=seed % 1000, group=group)
        mats = [m / opnorm(m) for m in rand_mats(np.random.default_rng(seed), dim, n + 1)]
        for g in range(len(t.group)):
            assert check_insert_identity(t, mats, g) < 1e-12
            assert check_cyclic(t, mats, g) < 1e-12
            assert check_d_invariance(t, mats, g) < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 6),
        group=st.sampled_from(["trivial", "z2"]),
        n=st.integers(0, 3),
        seed=st.integers(0, 10**6),
    )
    def test_exact_agrees_with_monte_carlo(self, dim, group, n, seed):
        # the exact block exponential lies within the Monte-Carlo estimate's
        # error bound; a miss counts only if one redraw at seed + 1 misses
        # too (200 draws at the defaults: no miss, largest gap 2.77 SE)
        t = random_triple(dim, seed=seed % 1000, group=group)
        mats = [m / opnorm(m) for m in rand_mats(np.random.default_rng(seed), dim, n + 1)]
        for g in range(len(t.group)):
            exact = expectation_value(t, mats, g)

            def within(s):
                mc = heat_expectation(t, mats, g, method="quadrature", samples=20_000, seed=s)
                return abs(mc.value - exact) <= mc.estimated_error + 1e-15

            assert within(seed) or within(seed + 1)


class TestDuhamel:
    def test_commuting_operand(self, zero_mode):
        # functions of Q^2 commute with the heat kernel
        lam, v = zero_mode.heat_data()
        b = v @ np.diag(lam**2 + 1.0) @ v.conj().T
        assert duhamel_commutator(zero_mode, b, 0.7) < 1e-13

    def test_gamma_on_exchange(self, exchange):
        # Q^2 = I so the second derivative of gamma vanishes
        assert duhamel_commutator(exchange, exchange.gamma, 1.0) < 1e-13

    @pytest.mark.parametrize("seed", range(6))
    def test_random(self, seed):
        t = random_triple(4, seed=seed + 40)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert duhamel_commutator(t, b, 0.5) < 1e-10

    def test_bad_s(self, exchange):
        with pytest.raises(BadExponent):
            duhamel_commutator(exchange, np.eye(2), 0.0)


class TestBounds:
    def test_identity_vertex(self, zero_mode):
        x = VertexSet([np.eye(3)], [VertexType(0, 0)])
        bound, ok = bound_expectation(zero_mode, x, mu=0.5)
        assert ok
        assert bound >= abs(zero_mode.heat_trace(0))

    def test_sharper_bounded_form(self, rng):
        t = random_triple(4, seed=33)
        mats = rand_mats(rng, 4, 3)
        x = VertexSet(mats)
        loose, ok_loose = bound_expectation(t, x, mu=0.5)
        sharp, ok_sharp = bounded_vertex_bound(t, x)
        assert ok_loose and ok_sharp
        lam, _ = t.heat_data()
        expected = float(np.sum(np.exp(-lam))) / math.factorial(2)
        for m in mats:
            expected *= opnorm(m)
        assert sharp == pytest.approx(expected, rel=1e-12)

    def test_character_vertex_set(self, rng):
        t = random_triple(4, seed=34)
        raws = rand_mats(rng, 4, 3)
        evens = [(r + t.conj_gamma(r)) / 2 for r in raws]
        verts = [evens[0]] + [derivative(t, a) for a in evens[1:]]
        beta, alpha = 0.3, 0.2
        types = [VertexType(beta, 0.0)] + [VertexType(beta, alpha)] * 2
        x = VertexSet(verts, types)
        bound, ok = bound_expectation(t, x, mu=0.5)
        assert ok

    def test_irregular_set_rejected(self):
        with pytest.raises(BadExponent):
            VertexSet(
                [np.eye(3), np.eye(3)], [VertexType(0, 1.0), VertexType(1.0, 0)]
            )
