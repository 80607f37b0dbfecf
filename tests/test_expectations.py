import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern import expectations
from heatchern.errors import BadExponent, ComplexityCap, DimensionMismatch
from heatchern.expectations import (
    MAX_BLOCK_ORDER,
    MAX_SAMPLES,
    VertexSet,
    beta_fn,
    bound_expectation,
    check_cyclic,
    check_d_invariance,
    check_insert_identity,
    duhamel_commutator,
    expectation_value,
    expectation_values,
    heat_expectation,
    repeated_expectation_series,
)
from heatchern.linalg import opnorm
from heatchern.models import (
    exchange_triple,
    random_even_element,
    random_odd_element,
    random_triple,
)
from heatchern.triples import SpectralTriple, VertexType, derivative


def rand_mats(rng, dim, count):
    return [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(count)
    ]


def stacked_monte_carlo(t, verts, g, samples, seed):
    """The Monte Carlo of ``heat_expectation(method="quadrature")`` with each
    vertex step a stacked (points, dim, dim) @ (dim, dim) product.

    The same draws, blocks, mean and Chan update as the library, which takes
    one (points*dim, dim) GEMM per vertex instead; the bits must agree.
    """
    lam, basis = t.heat_data()
    dim, n = lam.size, len(verts) - 1
    rng = np.random.default_rng(seed)
    mats = [basis.conj().T @ m @ basis for m in [t.twist(g) @ verts[0]] + verts[1:]]
    measure = 1.0 / math.factorial(n)
    tot, sq_dev, done = 0.0 + 0.0j, 0.0, 0
    block = max(1, min(4096, samples, MAX_BLOCK_ORDER**2 // dim**2))
    while done < samples:
        m = min(block, samples - done)
        e = rng.exponential(size=(m, n + 1))
        s = e / e.sum(axis=1, keepdims=True)
        ker = np.exp(-s[:, :, None] * lam[None, None, :])
        cur = mats[0][None, :, :] * ker[:, 0, :][:, None, :]
        for j in range(1, n + 1):
            cur = cur @ mats[j]
            cur = cur * ker[:, j, :][:, None, :]
        vals = np.trace(cur, axis1=1, axis2=2)
        block_sum = complex(vals.sum())
        block_mean = block_sum / m
        sq_dev += float((np.abs(vals - block_mean) ** 2).sum())
        if done:
            sq_dev += abs(block_mean - tot / done) ** 2 * done * m / (done + m)
        tot += block_sum
        done += m
    return measure * (tot / samples), 3.0 * measure * (math.sqrt(sq_dev) / samples)


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

    @pytest.mark.parametrize(
        "dim,group",
        [(2, "trivial"), (3, "z2"), (4, "trivial"), (5, "z2"), (6, "trivial"),
         (7, "z2"), (8, "trivial"), (33, "trivial"), (40, "z2")],
    )
    def test_quadrature_matches_the_stacked_product(self, dim, group):
        # 4097 samples cross a block: of 4096 points, or of the budget's 3851
        # at dim 33 and 2621 at dim 40, where they run at levels 0 and 1 only
        t = random_triple(dim, seed=dim, group=group)
        g = len(t.group) - 1
        rng = np.random.default_rng(dim)
        for n in range(6):
            verts = rand_mats(rng, dim, n + 1)
            for samples in (1, 7, 4097) if dim <= 8 or n <= 1 else (1, 7):
                ev = heat_expectation(t, verts, g, method="quadrature", samples=samples, seed=n)
                ref = stacked_monte_carlo(t, verts, g, samples, seed=n)
                assert (ev.value, ev.estimated_error) == ref

    @pytest.mark.parametrize("group,g", [("trivial", 0), ("z2", 1)])
    def test_quadrature_error_is_the_two_pass_estimate(self, group, g):
        # samples that barely vary around a mean of order 1 (z2, g = 1) or 0:
        # the one-pass E|v|^2 - |mean|^2 cancelled to a clamped 0.0 here,
        # and to 700x the true error for z2 at 200 000 samples
        t = random_triple(4, seed=3, group=group)
        x = rand_mats(np.random.default_rng(4), 4, 1)[0]
        verts = [np.eye(4, dtype=complex), np.eye(4) + 1e-6 * x]
        samples, seed = 20_000, 0
        ev = heat_expectation(t, verts, g, method="quadrature", samples=samples, seed=seed)
        # the same draws, in the same blocks of 4096, and two passes over them
        draws = np.random.default_rng(seed)
        e = np.concatenate([draws.exponential(size=(min(4096, samples - k), 2))
                            for k in range(0, samples, 4096)])
        s = e / e.sum(axis=1, keepdims=True)
        lam, v = t.heat_data()
        front, y = (v.conj().T @ m @ v for m in (t.twist(g), verts[1]))
        vals = np.einsum("kj,nj,jk,nk->n", front, np.exp(-s[:, :1] * lam), y,
                         np.exp(-s[:, 1:] * lam))
        mean = vals.mean()
        three_se = 3.0 * math.sqrt(np.mean(np.abs(vals - mean) ** 2) / samples)
        assert abs(ev.value - mean) <= 1e-12 * abs(mean) + 1e-24
        assert abs(ev.estimated_error - three_se) <= 1e-8 * three_se

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
        # refused before the block matrix is allocated; a series takes a
        # sample per level at least, so MAX_SAMPLES + 1 levels are refused
        # before any sample
        n = MAX_BLOCK_ORDER // zero_mode.dim
        assert (n + 1) * zero_mode.dim > MAX_BLOCK_ORDER
        with pytest.raises(ComplexityCap):
            expectation_value(zero_mode, [np.eye(3)] * (n + 1))
        with pytest.raises(ComplexityCap, match=f"{MAX_SAMPLES + 1} samples"):
            repeated_expectation_series(zero_mode, np.eye(3), np.eye(3), MAX_SAMPLES)

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

    @pytest.mark.parametrize("q", [1.5, 0.2])
    def test_deep_levels_on_scalar_heat_kernel(self, q):
        # one bidiagonal exponential per level: ||da|| = 2q puts level 32
        # far below level 0, which only the balanced superdiagonal resolves
        base = exchange_triple()
        t = SpectralTriple(dim=2, Q=q * base.Q, gamma=base.gamma, group=list(base.group))
        a = t.gamma.copy()
        da = derivative(t, a)
        for n in (8, 16, 24, 32):
            exact = (
                math.exp(-q * q) / math.factorial(n)
                * np.trace(t.gamma @ a @ np.linalg.matrix_power(da, n))
            )
            got = expectation_value(t, [a] + [da] * n)
            assert abs(got - exact) <= 1e-11 * abs(exact)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(1, 6),
        n=st.integers(0, 40),
        count=st.integers(1, 3),
        scale=st.floats(0.05, 20.0),
        seed=st.integers(0, 10**6),
    )
    def test_balance_keeps_the_svd_bits(self, dim, n, count, scale, seed):
        # the column-norm shortcut gives c = 1 only where the SVD formula does
        rng = np.random.default_rng(seed)
        xs = [scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
              for _ in range(count)]
        x_norm = max(opnorm(x) for x in xs)
        assert expectations._balance(n, xs) == max(1.0, n / (math.e * x_norm))

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


class TestMonteCarloChunks:
    """The Monte Carlo's chunks and its last-vertex diagonal keep the bits of
    the stacked per-point products, whatever the chunk size and the vertices."""

    @staticmethod
    def assert_matches(t, verts, g, samples, seed):
        ev = heat_expectation(t, verts, g, method="quadrature", samples=samples, seed=seed)
        assert (ev.value, ev.estimated_error) == stacked_monte_carlo(t, verts, g, samples, seed)

    @pytest.mark.parametrize("dim,group", [(2, "trivial"), (3, "z2"), (5, "trivial"), (9, "z2")])
    def test_small_chunks(self, monkeypatch, dim, group):
        # 64 entries: 7 points a chunk at dim 3, so 4096 leaves a ragged 1;
        # one point a chunk at dim 9
        monkeypatch.setattr(expectations, "_MC_CHUNK_ENTRIES", 64)
        t = random_triple(dim, seed=dim, group=group)
        rng = np.random.default_rng(dim)
        for n in range(4):
            for samples in (1, 7, 4097):
                self.assert_matches(t, rand_mats(rng, dim, n + 1), len(t.group) - 1, samples, n)

    @pytest.mark.parametrize("dim,group", [(3, "trivial"), (4, "z2"), (8, "trivial")])
    def test_one_chunk_per_block(self, monkeypatch, dim, group):
        monkeypatch.setattr(expectations, "_MC_CHUNK_ENTRIES", 2**20)
        t = random_triple(dim, seed=dim, group=group)
        rng = np.random.default_rng(dim)
        for n in range(4):
            for samples in (1, 7, 4097):
                self.assert_matches(t, rand_mats(rng, dim, n + 1), len(t.group) - 1, samples, n)

    def test_one_point_per_chunk(self):
        # dim^2 = 16900 entries exceed a chunk, which then holds one point
        dim = 130
        assert dim**2 > expectations._MC_CHUNK_ENTRIES
        t = random_triple(dim, seed=1)
        rng = np.random.default_rng(dim)
        for n in range(3):
            self.assert_matches(t, rand_mats(rng, dim, n + 1), 0, 3, n)

    @pytest.mark.parametrize("group", ["trivial", "z2"])
    @pytest.mark.parametrize("n", range(4))
    def test_vertices_with_exact_zeros(self, group, n):
        dim = 4
        t = random_triple(dim, seed=7, group=group)
        eye = np.eye(dim, dtype=complex)
        special = [eye, np.zeros((dim, dim)), np.diag([1.0, -2.0, 0.5j, 3.0 - 1j]),
                   t.gamma, -eye]
        for a in range(len(special)):
            verts = [special[(a + i) % len(special)] for i in range(n + 1)]
            self.assert_matches(t, verts, len(t.group) - 1, 4097, a)


class TestMonteCarloSamples:
    @pytest.mark.parametrize("samples", [float("nan"), 2.5, 1000.0, True])
    def test_samples_must_be_an_integer(self, rng, samples):
        # NaN returned NaN +- NaN, 2.5 and 1000.0 failed inside numpy, True ran once
        t = random_triple(3, seed=2)
        with pytest.raises(TypeError, match="samples must be an integer"):
            heat_expectation(t, rand_mats(rng, 3, 2), method="quadrature", samples=samples)

    def test_numpy_integer_samples(self, rng):
        # np.int64 samples used to make the value an np.complex128
        t = random_triple(3, seed=2)
        mats = rand_mats(rng, 3, 2)
        ev = heat_expectation(t, mats, method="quadrature", samples=np.int64(5), seed=1)
        ref = heat_expectation(t, mats, method="quadrature", samples=5, seed=1)
        assert type(ev.value) is complex and type(ev.estimated_error) is float
        assert (ev.value, ev.estimated_error) == (ref.value, ref.estimated_error)

    @pytest.mark.parametrize("seed", [float("nan"), 2.5, True])
    def test_seed_must_be_an_integer(self, rng, monkeypatch, seed):
        # True ran as seed 1, 2.5 and NaN failed inside numpy's SeedSequence
        t = random_triple(3, seed=2)
        mats = rand_mats(rng, 3, 2)
        monkeypatch.setattr(expectations, "_monte_carlo", None)  # no draw is reached
        with pytest.raises(TypeError, match=f"seed must be an integer, got {seed!r}"):
            heat_expectation(t, mats, method="quadrature", samples=5, seed=seed)

    def test_seed_must_be_nonnegative(self, rng, monkeypatch):
        t = random_triple(3, seed=2)
        mats = rand_mats(rng, 3, 2)
        monkeypatch.setattr(expectations, "_monte_carlo", None)
        with pytest.raises(ValueError, match="seed >= 0, got -1"):
            heat_expectation(t, mats, method="quadrature", samples=5, seed=-1)

    def test_numpy_integer_seed(self, rng):
        t = random_triple(3, seed=2)
        mats = rand_mats(rng, 3, 2)
        ev = heat_expectation(t, mats, method="quadrature", samples=5, seed=np.int64(9))
        ref = heat_expectation(t, mats, method="quadrature", samples=5, seed=9)
        assert (ev.value, ev.estimated_error) == (ref.value, ref.estimated_error)


def _bits(z) -> tuple[str, str]:
    """The bits of a complex number, signs of zeros included."""
    z = complex(z)
    return float.hex(z.real), float.hex(z.imag)


def _graded_lists(t, rng, levels):
    """Vertex lists of every parity pattern at each level: gamma-even and
    gamma-odd vertices, and a first vertex with no parity."""
    even = [random_even_element(t, rng) for _ in range(3)]
    odd = [random_odd_element(t, rng) for _ in range(3)]
    raw = rand_mats(rng, t.dim, 1)[0]
    lists = []
    for n in levels:
        for code in range(2 ** (n + 1)):
            lists.append([(odd if code >> j & 1 else even)[j % 3] for j in range(n + 1)])
        lists.append([raw] + even[:n])
    return lists


class TestGradedZeros:
    """A vertex list whose grading makes its trace 0 takes no exponential and
    keeps the bits of the full computation."""

    @staticmethod
    def counting(monkeypatch):
        counts = {"expm": 0, "svd": 0}
        expm, svd = expectations.expm, np.linalg.svd

        def count(name, fn):
            def call(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)
            return call

        monkeypatch.setattr(expectations, "expm", count("expm", expm))
        monkeypatch.setattr(np.linalg, "svd", count("svd", svd))
        return counts

    def test_graded_zero_takes_no_exponential_and_no_balance(self, monkeypatch):
        # ||x|| = 0.1 < 1/e: the full path balances it with an SVD
        t = random_triple(4, seed=3, group="z2")
        rng = np.random.default_rng(4)
        odd = random_odd_element(t, rng)
        verts = [random_even_element(t, rng), 0.1 * odd / opnorm(odd)]
        counts = self.counting(monkeypatch)
        ev = heat_expectation(t, verts, 1)
        assert counts == {"expm": 0, "svd": 0}
        assert _bits(ev.value) == _bits(0j) and _bits(ev.estimated_error) == _bits(0.0)
        monkeypatch.setattr(t, "_sectors", None)
        full = heat_expectation(t, verts, 1)
        assert counts["expm"] == 1 and counts["svd"] >= 1
        assert (_bits(full.value), full.estimated_error) == (_bits(ev.value), ev.estimated_error)

    @pytest.mark.parametrize("dim, group", [(1, "trivial"), (2, "z2"), (3, "trivial"),
                                            (4, "z2"), (5, "trivial"), (6, "z2")])
    def test_same_bits_as_the_full_path(self, monkeypatch, dim, group):
        t = random_triple(dim, seed=dim, group=group)
        lists = _graded_lists(t, np.random.default_rng(dim), range(5))
        for g in range(len(t.group)):
            got = [heat_expectation(t, verts, g) for verts in lists]
            zeros = [ev.value == 0 for ev in got]
            assert any(zeros) and not all(zeros)
            with monkeypatch.context() as m:
                m.setattr(t, "_sectors", None)
                full = [heat_expectation(t, verts, g) for verts in lists]
                batch = expectation_values(t, lists, g)
            for a, b, v in zip(got, full, batch):
                assert _bits(a.value) == _bits(b.value) == _bits(v)
                assert _bits(a.estimated_error) == _bits(b.estimated_error)

    def test_graded_zeros_are_counted(self, monkeypatch):
        # of the 2^(n+1) + 1 lists per level, the odd counts of odd vertices
        # are 0: half of the pure ones, none with a vertex of no parity
        t = random_triple(5, seed=7, group="z2")
        lists = _graded_lists(t, np.random.default_rng(8), (0, 1, 2, 3))
        shapes = []
        expm = expectations.expm
        monkeypatch.setattr(expectations, "expm",
                            lambda m, *a, **kw: shapes.append(np.shape(m)) or expm(m, *a, **kw))
        vals = expectation_values(t, lists, 1)
        assert sum(s[0] for s in shapes) == sum(2**n + 1 for n in range(4))
        assert sum(v == 0 for v in vals) == sum(2**n for n in range(4))

    def test_rotated_triple_takes_the_full_path(self, monkeypatch):
        # a grading that is not diagonal has no sector signs; every list is
        # exponentiated, and the odd ones stay within rounding of 0
        t = random_triple(4, seed=5, group="z2")
        w, _ = np.linalg.qr(rand_mats(np.random.default_rng(6), 4, 1)[0])
        rot = lambda m: w @ m @ w.conj().T  # noqa: E731
        r = SpectralTriple(dim=4, Q=rot(t.Q), gamma=rot(t.gamma), group=[rot(u) for u in t.group])
        assert r._sectors is None
        graded = _graded_lists(t, np.random.default_rng(7), (1, 2))
        lists = [[rot(x) for x in verts] for verts in graded]
        counts = self.counting(monkeypatch)
        vals = expectation_values(r, lists, 1)
        assert counts["expm"] == 2 and all(v != 0 for v in vals)

    @pytest.mark.parametrize("scale", [1e160, 1e308])
    def test_graded_zero_past_the_float_range(self, scale):
        # its column bound overflowed with a warning, and from a 1-norm of
        # 2^1022 its exponential raised Overflow; its value is 0 all the same
        x = scale * np.array([[0, 1], [1, 0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = heat_expectation(exchange_triple(), [np.eye(2), x])
        assert _bits(ev.value) == _bits(0j) and ev.estimated_error == 0.0

    def test_mixed_eigenvectors_have_no_sectors(self):
        # gamma is diag(1, -1), but H = Q^2 mixes the sectors
        t = SpectralTriple(dim=2, Q=np.array([[1.0, 1.0], [1.0, 1.0]]),
                           gamma=np.diag([1.0, -1.0]), group=[np.eye(2)])
        assert t._sectors is None


class TestRowSums:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_row_sums_keep_the_bits_of_sum(self, dtype):
        # short rows, the 8-double blocks with a remainder, and rows numpy
        # splits in halves; -0 entries and rows of -0 alone
        rng = np.random.default_rng(1)
        for cols in list(range(1, 70)) + [100, 129]:
            a = rng.normal(size=(9, cols)) * np.exp(8 * rng.normal(size=(9, cols)))
            if dtype is complex:
                a = a + 1j * rng.normal(size=(9, cols))
            a[rng.random(a.shape) < 0.2] = -0.0
            a[0] = -0.0
            ref, got = a.sum(axis=1), expectations._row_sums(a)
            assert [_bits(z) for z in ref] == [_bits(z) for z in got]


def _character_list(t, rng):
    """[a_0, da_1, da_2] on gamma-even a_j: the parities (+1, -1, -1) of
    tau_2, which the Monte Carlo sums by sectors."""
    a = [random_even_element(t, rng, unit=False) for _ in range(3)]
    return [a[0], derivative(t, a[1]), derivative(t, a[2])]


def _simplex_draws(samples, seed, dim):
    """The Monte Carlo's level-2 simplex points, block by block, and the
    block count."""
    rng = np.random.default_rng(seed)
    block = max(1, min(4096, samples, MAX_BLOCK_ORDER**2 // dim**2))
    parts = []
    for lo in range(0, samples, block):
        e = rng.exponential(size=(min(block, samples - lo), 3))
        parts.append(e / e.sum(axis=1, keepdims=True))
    return np.concatenate(parts), len(parts)


def graded_rounding_bounds(t, verts, g, samples, seed):
    """Bounds on how far the sector sums of a level-2 Monte Carlo may lie
    from the chain's, in the value and in ``estimated_error``.

    Both sum the terms X_0[c,a] e^{-s_0 l_a} X_1[a,b] e^{-s_1 l_b}
    X_2[b,c] e^{-s_2 l_c} of a point, rounded differently.  To first order
    in the unit roundoff u each rounds a term by at most u times its modulus
    times: the chain 3 dim (two length-dim products and the trace's sum)
    plus 9 (complex products and scalings) plus s_j l for each kernel's
    product; the sectors w = |sigma||not sigma| (the real GEMM) plus dim
    (the sum over c) plus 10 plus 3 l_max (W's rank-2 product and k2).
    Twice the sum, kappa = 2 (w + 4 dim + 19 + 4 l_max) u, covers the
    second-order terms, so |v_p - v'_p| <= kappa M_p with M_p the sum of
    the terms' moduli at point p.  The mean's sums, pairwise within blocks
    and then over blocks, add at most (20 + log2 samples + blocks) u of
    sum_p M_p on each side.  sqrt(sum_p |v_p - mean|^2) is 1-Lipschitz in
    the values (in the 2-norm), and each side's deviations round by at
    most the same summation factor of M_p + mean M: that bounds the
    error's move, with the factor again for the squares' sums.
    """
    lam, v = t.heat_data()
    dim, u = lam.size, 2.0**-53
    mags = [np.abs(v.conj().T @ m @ v) for m in [t.twist(g) @ verts[0]] + verts[1:]]
    s, blocks = _simplex_draws(samples, seed, dim)
    big = []
    for lo in range(0, samples, 256):
        k = [np.exp(-s[lo : lo + 256, j, None] * lam) for j in range(3)]
        front = (mags[0][None] * k[0][:, None, :]) @ mags[1]
        big.append(np.einsum("pcb,pb,bc,pc->p", front, k[1], mags[2], k[2]))
    big = np.concatenate(big)
    signs = t._sectors
    width = int((signs == 1).sum() * (signs == -1).sum())
    kappa = 2.0 * (width + 4 * dim + 19 + 4 * float(np.abs(lam).max())) * u
    summing = (20 + math.log2(samples) + blocks) * u
    value = 0.5 * (kappa + 2 * summing) * big.sum() / samples
    spread = np.sqrt(np.sum((big + big.mean()) ** 2))
    error = 1.5 * ((kappa * np.sqrt(np.sum(big**2)) + 2 * summing * spread) / samples)
    return value, error


class TestGradedMonteCarlo:
    """A level-2 list of parities (+1, -1, -1) on a triple with sectors is
    summed by sectors: the chain's value and error up to rounding, and the
    chain for every other list."""

    @pytest.mark.parametrize("chunk_entries", [64, 2**20])
    @pytest.mark.parametrize("group", ["trivial", "z2"])
    @pytest.mark.parametrize("dim", list(range(2, 13)) + [24, 48])
    def test_matches_the_stacked_product(self, monkeypatch, dim, group, chunk_entries):
        # 64 entries: W's chunks of 128 doubles hold 128 points at dim 2, 3
        # at dim 12 (width 36) and one at dims 24 and 48, with ragged last
        # chunks between; 2^20: one chunk per block
        monkeypatch.setattr(expectations, "_MC_CHUNK_ENTRIES", chunk_entries)
        t = random_triple(dim, seed=dim, group=group)
        verts = _character_list(t, np.random.default_rng(dim))
        for g in range(len(t.group)):
            for samples in (1, 7, 4097):
                ev = heat_expectation(t, verts, g, method="quadrature", samples=samples,
                                      seed=samples)
                value, error = stacked_monte_carlo(t, verts, g, samples, samples)
                value_bound, error_bound = graded_rounding_bounds(t, verts, g, samples, samples)
                assert abs(ev.value - value) <= value_bound
                assert abs(ev.estimated_error - error) <= error_bound

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 8),
        group=st.sampled_from(["trivial", "z2"]),
        seed=st.integers(0, 10**6),
    )
    def test_exact_agrees_with_monte_carlo(self, dim, group, seed):
        # as TestSymmetries' check on graded lists: a miss counts only if one
        # redraw at seed + 1 misses too
        t = random_triple(dim, seed=seed % 1000, group=group)
        verts = [m / opnorm(m) for m in _character_list(t, np.random.default_rng(seed))]
        for g in range(len(t.group)):
            exact = expectation_value(t, verts, g)

            def within(s):
                mc = heat_expectation(t, verts, g, method="quadrature", samples=20_000, seed=s)
                return abs(mc.value - exact) <= mc.estimated_error + 1e-15

            assert within(seed) or within(seed + 1)

    def test_which_lists_take_the_sectors(self, monkeypatch):
        taken = []
        for name in ("_graded_values", "_chain_values"):
            fn = getattr(expectations, name)
            monkeypatch.setattr(expectations, name,
                                lambda *a, name=name, fn=fn: taken.append(name) or fn(*a))

        def path(t, verts, g=0):
            taken.clear()
            heat_expectation(t, verts, g, method="quadrature", samples=3)
            (name,) = taken
            return name == "_graded_values"

        rng = np.random.default_rng(5)
        t = random_triple(6, seed=5, group="z2")
        even = [random_even_element(t, rng) for _ in range(3)]
        odd = [random_odd_element(t, rng) for _ in range(3)]
        raw = rand_mats(rng, 6, 1)[0]
        # the character's pattern, at every group element
        assert path(t, _character_list(t, rng)) and path(t, _character_list(t, rng), 1)
        assert path(t, [even[0], odd[0], odd[1]])
        # not graded, all even, another pattern of parities, a zero vertex
        assert not path(t, [even[0], odd[0], raw])
        assert not path(t, [raw, odd[0], odd[1]])
        assert not path(t, even)
        assert not path(t, [odd[0], odd[1], even[0]])
        assert not path(t, [even[0], odd[0], np.zeros((6, 6))])
        # levels other than 2
        assert not path(t, [even[0], odd[0]])
        assert not path(t, [even[0], odd[0], odd[1], even[1]])
        assert not path(t, [even[0]] + odd + [odd[0]])
        # a triple without sectors: a grading that is not diagonal
        w, _ = np.linalg.qr(rand_mats(np.random.default_rng(6), 6, 1)[0])
        rot = lambda m: w @ m @ w.conj().T  # noqa: E731
        r = SpectralTriple(dim=6, Q=rot(t.Q), gamma=rot(t.gamma), group=[rot(u) for u in t.group])
        assert r._sectors is None
        assert not path(r, [rot(x) for x in (even[0], odd[0], odd[1])])

    def test_coefficients_past_the_block_budget_keep_the_chain(self, monkeypatch):
        # dim * |sigma| |not sigma| entries of C: 4 * 2 * 2 = 16 fit in
        # MAX_BLOCK_ORDER^2 = 16, 5 * 3 * 2 = 30 do not
        monkeypatch.setattr(expectations, "MAX_BLOCK_ORDER", 4)
        for dim, graded in [(4, True), (5, False)]:
            t = random_triple(dim, seed=dim)
            lam, v = t.heat_data()
            mats = [v.conj().T @ m @ v for m in _character_list(t, np.random.default_rng(dim))]
            assert (expectations._graded_level_two(t, mats) is not None) == graded

    def test_peak_memory_at_dim_64(self):
        # C holds 16 * 64 * 32 * 32 bytes (1 MiB) and a sector's product as
        # much again while it forms; W's chunk 256 KiB, the kernels of one
        # block 1024 * 32 doubles per sector.  The chain's peak is 4.2 MiB.
        t = random_triple(64, seed=5)
        verts = _character_list(t, np.random.default_rng(64))
        t.heat_data()
        tracemalloc.start()
        try:
            heat_expectation(t, verts, method="quadrature", samples=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


def _graded_setup(dim, group, g):
    """The eigenvalues, the eigenbasis matrices of the character's level-2
    list at group element g and the sector signs, on the seeded triple."""
    t = random_triple(dim, seed=dim, group=group)
    verts = _character_list(t, np.random.default_rng(dim))
    lam, v = t.heat_data()
    mats = [v.conj().T @ m @ v for m in [t.twist(g) @ verts[0]] + verts[1:]]
    assert expectations._graded_level_two(t, mats) is not None
    return lam, mats, t._sectors


def _chain_points(lam, mats, s):
    """The chain's per-point values at simplex points s, shape (points, 3),
    as stacked per-point products, and each point's sum of the moduli of
    its terms."""
    ker = np.exp(-s[:, :, None] * lam)
    cur = mats[0][None] * ker[:, 0][:, None, :]
    mod = np.abs(mats[0])[None] * ker[:, 0][:, None, :]
    for j in (1, 2):
        cur = (cur @ mats[j]) * ker[:, j][:, None, :]
        mod = (mod @ np.abs(mats[j])) * ker[:, j][:, None, :]
    return np.trace(cur, axis1=1, axis2=2), np.trace(mod, axis1=1, axis2=2)


class TestGradedChunks:
    """The sector sums keep a chunk's points along the contiguous axis: each
    chunk, the ragged last one too, gives the values it gives alone, each
    point within rounding of the chain's, from the chain's points bit for
    bit; the draws and the chain keep their bits."""

    @pytest.mark.parametrize("group", ["trivial", "z2"])
    @pytest.mark.parametrize("dim", [3, 5, 7, 8, 9, 12])
    def test_chunks_of_a_block(self, monkeypatch, dim, group):
        # 64 entries: a sector's W takes 128 // width points, 64 at dim 3,
        # 10 at dim 7 (|sigma| 4, |not sigma| 3), 8 at dim 8, 6 at dim 9 and
        # 3 at dim 12; 4097 points leave a ragged last chunk at each
        monkeypatch.setattr(expectations, "_MC_CHUNK_ENTRIES", 64)
        for g in range(2 if group == "z2" else 1):
            lam, mats, signs = _graded_setup(dim, group, g)
            width = int((signs == 1).sum() * (signs == -1).sum())
            chunk = 128 // width
            kappa = 2.0 * (width + 4 * dim + 19 + 4 * float(np.abs(lam).max())) * 2.0**-53
            values = expectations._graded_values(lam, mats, signs)
            for m in (1, 7, 4097):
                e = np.random.default_rng(m).standard_exponential(size=(m, 3))
                points = expectations._simplex_points(e)
                got = values(points)
                assert m < chunk or m % chunk != 0
                alone = [values(expectations._simplex_points(e[lo : lo + chunk]))
                         for lo in range(0, m, chunk)]
                assert got.tobytes() == np.concatenate(alone).tobytes()
                # the bound of ``graded_rounding_bounds``, point by point
                ref, mod = _chain_points(lam, mats, points.T)
                assert np.all(np.abs(got - ref) <= kappa * mod)

    @pytest.mark.parametrize("graded", [True, False])
    @pytest.mark.parametrize("dim", [3, 8, 9])
    def test_points_are_the_row_sums_quotients(self, monkeypatch, dim, graded):
        # every block's points, on either path, against e / _row_sums(e);
        # the blocks hold the run's draws in order
        seen, points = [], expectations._simplex_points
        monkeypatch.setattr(expectations, "_simplex_points",
                            lambda e: seen.append((e, points(e))) or seen[-1][1])
        t = random_triple(dim, seed=dim, group="z2")
        verts = _character_list(t, np.random.default_rng(dim))
        if not graded:
            verts = verts[:2]
        heat_expectation(t, verts, 1, method="quadrature", samples=4097, seed=4)
        assert [len(e) for e, _ in seen] == [4096, 1]
        for e, s in seen:
            assert s.flags.c_contiguous and s.shape == (len(verts), len(e))
            assert s.tobytes() == (e / expectations._row_sums(e)[:, None]).T.tobytes()
        draws = np.random.default_rng(4)
        for e, _ in seen:
            assert e.tobytes() == draws.exponential(size=e.shape).tobytes()

    @pytest.mark.parametrize("cols", range(1, 7))
    def test_simplex_points_keep_the_bits(self, cols):
        rng = np.random.default_rng(cols)
        for m in (1, 7, 4097):
            e = rng.standard_exponential(size=(m, cols))
            before = e.tobytes()
            s = expectations._simplex_points(e)
            assert s.tobytes() == (e / expectations._row_sums(e)[:, None]).T.tobytes()
            # a one-point block's transpose is contiguous too: it is copied
            assert e.tobytes() == before

    @pytest.mark.parametrize("seed", [0, 5, 71])
    def test_standard_exponential_draws_the_exponentials_bits(self, seed):
        # the Monte Carlo's block shapes in sequence at levels 0-5: blocks of
        # 4096, the budget's 3851 and 2621 at dims 33 and 40, ragged last ones
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(6):
            for m in (4096, 4096, 3851, 2621, 1, 7, 905):
                x = a.standard_exponential(size=(m, n + 1))
                assert x.tobytes() == b.exponential(size=(m, n + 1)).tobytes()

    @pytest.mark.parametrize("chunk_entries", [64, 2**14])
    def test_chain_keeps_its_bits(self, monkeypatch, chunk_entries):
        # lists on a triple with sectors that the sector sums refuse
        monkeypatch.setattr(expectations, "_MC_CHUNK_ENTRIES", chunk_entries)
        monkeypatch.setattr(expectations, "_graded_values", None)
        t = random_triple(6, seed=5, group="z2")
        rng = np.random.default_rng(6)
        even = [random_even_element(t, rng) for _ in range(3)]
        odd = [random_odd_element(t, rng) for _ in range(2)]
        raw = rand_mats(rng, 6, 1)[0]
        lists = [[even[0], odd[0], raw], even, [odd[0], odd[1], even[0]], [even[0], odd[0]],
                 [even[0], odd[0], odd[1], even[1]]]
        for verts in lists:
            for g in range(2):
                for samples in (1, 7, 4097):
                    ev = heat_expectation(t, verts, g, method="quadrature", samples=samples,
                                          seed=samples)
                    ref = stacked_monte_carlo(t, verts, g, samples, samples)
                    assert (ev.value, ev.estimated_error) == ref


class TestPairwiseSums:
    @pytest.mark.parametrize("rows", list(range(1, 20)) + [63, 64, 65, 100, 129, 200, 300])
    def test_complex_parts_in_trailing_axes(self, rows):
        # (rows, 2, points) reals with per = 2 sum as the complex rows of
        # their transpose: the sector sums' layout; from 65 rows numpy
        # splits a row in halves, from 129 twice
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 2, 5)) * np.exp(8 * rng.normal(size=(rows, 2, 5)))
        a[rng.random(a.shape) < 0.2] = -0.0
        z = np.ascontiguousarray((a[:, 0] + 1j * a[:, 1]).T)
        ref = z.sum(axis=1)
        got = expectations._pairwise_sums(a, 2)
        assert got.tobytes() == np.stack([ref.real, ref.imag]).tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 17, 128, 129, 130, 300])
    def test_real_rows(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 4)) * np.exp(8 * rng.normal(size=(rows, 4)))
        ref = np.ascontiguousarray(a.T).sum(axis=1)
        assert expectations._pairwise_sums(a, 1).tobytes() == ref.tobytes()
