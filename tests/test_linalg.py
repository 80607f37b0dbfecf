import math
import re

import numpy as np
import pytest

from heatchern.errors import BadExponent, DimensionMismatch, NotHermitian, Overflow
from heatchern.expectations import expectation_value
from heatchern.models import random_triple, zero_mode_triple
from heatchern.linalg import (
    _taylor,
    as_matrix,
    eig_hermitian,
    expm,
    opnorm,
    schatten_norm,
    simplex_exp,
)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestEigHermitian:
    def test_diagonal(self):
        es = eig_hermitian(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(es.eigenvalues, [1, 2, 3])
        assert np.allclose(np.abs(es.eigenvectors), np.eye(3))

    def test_exchange(self):
        es = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, 6)
        h = (a + a.conj().T) / 2
        es = eig_hermitian(h)
        v, w = es.eigenvectors, es.eigenvalues
        assert opnorm((v * w) @ v.conj().T - h) < 1e-12 * opnorm(h)
        assert opnorm(v.conj().T @ v - np.eye(6)) < 1e-12

    def test_not_hermitian_reports_entry(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1.0
        with pytest.raises(NotHermitian, match=r"\(0,2\)|\(2,0\)"):
            eig_hermitian(m)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eig_hermitian(np.ones((2, 3)))


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4))

    @pytest.mark.parametrize("n", [1, 4])
    def test_zero_is_the_identity_bit_for_bit(self, n):
        # s = 0 and the Taylor core at 0: exactly I, with +0 off the diagonal
        got = expm(np.zeros((n, n)))
        assert got.shape == (n, n) and got.dtype == complex
        assert got.tobytes() == np.eye(n, dtype=complex).tobytes()

    def test_diagonal(self):
        d = np.array([0.3, -1.2, 2.0])
        assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)), atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_taylor_oracle(self, seed):
        # 60-term Taylor sum as the independent reference at norm <= 1
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 5)
        m /= np.linalg.norm(m, 1)
        ref = np.eye(5, dtype=complex)
        term = np.eye(5, dtype=complex)
        for k in range(1, 60):
            term = term @ m / k
            ref = ref + term
        got = expm(m)
        assert opnorm(got - ref) < 1e-12 * opnorm(ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_product(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 4)
        a = m + 0.5 * m @ m
        b = 2.0 * m - m @ m @ m / 3.0
        a *= 1.0 / np.linalg.norm(a, 1)
        b *= 1.5 / np.linalg.norm(b, 1)
        lhs = expm(a + b)
        rhs = expm(a) @ expm(b)
        assert opnorm(lhs - rhs) < 1e-12 * opnorm(rhs)

    def test_moderate_norm_accuracy(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 4)
        m *= 18.0 / np.linalg.norm(m, 1)
        w, v = np.linalg.eig(m)
        ref = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert opnorm(expm(m) - ref) < 1e-10 * opnorm(ref)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12, 24, 48])
    def test_stack_slices_match_single(self, dim):
        # a Gauss-Hermite stack -h + i t da, with a zero slice and t = 0
        rng = np.random.default_rng(dim)
        q = random_matrix(rng, dim)
        h = q @ q.conj().T / dim
        da = random_matrix(rng, dim)
        da /= opnorm(da)
        ts = np.concatenate([np.polynomial.hermite.hermgauss(64)[0], [0.0]])
        stack = np.concatenate([-h + 1j * ts[:, None, None] * da, np.zeros((1, dim, dim))])
        got = expm(stack)
        assert got.shape == stack.shape
        for k in range(len(stack)):
            assert np.array_equal(got[k], expm(stack[k]))
        assert np.array_equal(got[-1], np.eye(dim))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12, 24, 48])
    def test_taylor_core_matches_horner(self, dim):
        # the same degree-18 polynomial by Horner, on stacks of 1-norm <= 0.5
        rng = np.random.default_rng(100 + dim)
        x = np.stack([random_matrix(rng, dim) for _ in range(6)])
        x *= np.array([0.5, 0.3, 0.1, 1e-3, 0.0, 0.5])[:, None, None] / np.linalg.norm(
            x, 1, axis=(1, 2)
        )[:, None, None]
        ident = np.eye(dim, dtype=complex)
        got = _taylor(x)
        for k in range(len(x)):
            ref = ident + x[k] / 18
            for j in range(17, 0, -1):
                ref = ident + (x[k] @ ref) / j
            err = np.linalg.norm(got[k] - ref, 1)
            assert err <= 8 * np.finfo(float).eps * np.linalg.norm(ref, 1)
            assert np.array_equal(_taylor(x[k]), got[k])
        assert np.array_equal(got[4], ident)

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_taylor_core_of_any_layout(self, dim):
        # c_0 goes onto the diagonal through a view of the flattened slices,
        # whatever the layout of the input: Fortran order and transposes
        zero = np.zeros((2, dim, dim), dtype=complex, order="F")
        assert _taylor(zero).tobytes() == np.stack([np.eye(dim, dtype=complex)] * 2).tobytes()
        assert _taylor(zero[0]).tobytes() == np.eye(dim, dtype=complex).tobytes()
        rng = np.random.default_rng(dim)
        x = 0.1 * np.stack([random_matrix(rng, dim) for _ in range(3)])
        ref = _taylor(x)
        transposed = np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 1, 2)), 1, 2)
        for y in (np.asfortranarray(x), transposed):
            assert np.abs(_taylor(y) - ref).max() <= 1e-15
        assert np.abs(expm(np.asfortranarray(x[0])) - expm(x[0])).max() <= 1e-15

    def test_overflow(self):
        big = 1e4 * np.eye(2)
        for m in (big, np.stack([np.eye(2), big, np.zeros((2, 2))])):
            with pytest.raises(Overflow):
                expm(m, norm_cap=1e3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "big, norm",
        [
            (-4.5e307 * np.eye(2), "4.500e+307"),
            (np.array([[1e308, 0.0], [1e308, 0.0]]), "inf"),
            (np.diag([1.5e308 + 1.5e308j, 1.0]), "inf"),
        ],
        ids=["past-2^1022", "column-sum-overflows", "modulus-overflows"],
    )
    def test_scaling_past_the_float_range(self, big, norm):
        # 2^s is not finite: a stack scaled such a slice to 0 and took its
        # exponential as I, with a RuntimeWarning, and a single matrix raised
        # a bare OverflowError.  Only the middle slice of the stack is too large
        message = re.escape(f"matrix 1-norm {norm}: its scaling 2^s leaves the float range")
        for m in (big, np.stack([np.eye(2), big, np.zeros((2, 2))])):
            with pytest.raises(Overflow, match=message):
                expm(m, norm_cap=np.inf)

    @pytest.mark.filterwarnings("error")
    def test_scaling_at_the_float_range(self):
        # 1-norm 2^1022 takes the last finite scaling, 2^1023
        edge = -(2.0**1022) * np.eye(2)
        assert np.array_equal(expm(edge, norm_cap=np.inf), np.zeros((2, 2)))
        got = expm(np.stack([np.eye(2), edge]), norm_cap=np.inf)
        assert np.array_equal(got, [expm(np.eye(2)), np.zeros((2, 2))])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 3), (2, 2, 2, 2), (4,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(DimensionMismatch):
            expm(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)])
    def test_rejects_non_finite(self, shape):
        m = np.zeros(shape, dtype=complex)
        m.flat[-1] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            expm(m)


class TestOpnorm:
    def test_bits_of_the_numpy_norm(self, rng):
        for dim in range(1, 49):
            x = random_matrix(rng, dim)
            for m in (x, x + x.conj().T, np.zeros((dim, dim), dtype=complex)):
                assert opnorm(m).hex() == float(np.linalg.norm(m, 2)).hex()


class TestAsMatrix:
    def test_views_match_their_contiguous_copies(self, rng):
        # a non-contiguous complex array raised numpy's "last axis must be contiguous"
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for view in (x.conj().T, x.T, x[::2, ::2], x[:, ::-1]):
            assert not view.flags.c_contiguous
            got = as_matrix(view)
            assert got.tobytes() == np.ascontiguousarray(view).tobytes()

    def test_non_contiguous_inf_is_named(self):
        x = np.zeros((4, 4), dtype=complex)
        x[2, 0] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="contains non-finite entries"):
            as_matrix(x.T)
        with pytest.raises(ValueError, match="contains non-finite entries"):
            as_matrix(x[::2, ::2])

    def test_expectation_of_a_transposed_vertex(self):
        t = random_triple(4, seed=3)
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = (raw + t.conj_gamma(raw)) / 2
        got = expectation_value(t, [x, x.conj().T])
        assert got == expectation_value(t, [x, x.conj().T.copy()])


class TestExpmToeplitzRow:
    @pytest.mark.parametrize("zero_x", [False, True], ids=["x", "x0"])
    @pytest.mark.parametrize("n", [0, 1, 16, 40])
    @pytest.mark.parametrize("spectrum", ["d1", "d2", "d5", "d12", "zero_mode"])
    def test_matches_dense_block_row(self, expm_toeplitz_row, spectrum, n, zero_x):
        # the series levels' test oracle against expm on the explicit
        # block-Toeplitz matrix; d and x are shaped as the bidiagonal route
        # passes them: the shifted spectrum of Q^2 (degenerate for the
        # zero-mode triple) and a balanced x
        t = zero_mode_triple() if spectrum == "zero_mode" else random_triple(
            int(spectrum[1:]), seed=7
        )
        lam, _ = t.heat_data()
        dim = lam.size
        beta = 1.3
        d = -beta * (lam - lam.min())
        x = random_matrix(np.random.default_rng(n), dim)
        x *= 0.0 if zero_x else max(1.0, n / math.e) / opnorm(x)
        order = (n + 1) * dim
        m = np.zeros((order, order), dtype=complex)
        m[np.diag_indices(order)] = np.tile(d, n + 1)
        for k in range(n):
            m[k * dim : (k + 1) * dim, (k + 1) * dim : (k + 2) * dim] = x
        ref = expm(m, norm_cap=np.inf)[:dim]
        got = expm_toeplitz_row(d, x, n)
        assert got.shape == (dim, order)
        for k in range(n + 1):
            blk = slice(k * dim, (k + 1) * dim)
            err = np.linalg.norm(got[:, blk] - ref[:, blk])
            assert err <= 1e-13 * np.linalg.norm(ref[:, blk])


class TestSimplexExp:
    def test_single_point(self):
        assert simplex_exp([1.3], 1.0) == pytest.approx(math.exp(-1.3), abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_confluent(self, n):
        lam = 1.7
        expected = math.exp(-lam) / math.factorial(n)
        assert simplex_exp([lam] * (n + 1), 1.0) == pytest.approx(expected, abs=1e-14)

    def test_measure_of_simplex(self):
        assert simplex_exp([0.0, 0.0, 0.0], 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_one_dimensional_integral(self):
        # int_0^1 e^{-s} ds = 1 - e^{-1}
        assert simplex_exp([0.0, 1.0], 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-14
        )

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)])
    def test_monte_carlo_agreement(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 10.0, n + 1)
        beta = float(rng.uniform(0.5, 2.0))
        m = 200_000
        e = rng.exponential(size=(m, n + 1))
        u = e / e.sum(axis=1, keepdims=True)
        vals = np.exp(-beta * (u @ pts))
        measure = beta**n / math.factorial(n)
        est = measure * vals.mean()
        se = measure * vals.std() / math.sqrt(m)
        assert abs(est - simplex_exp(pts, beta)) <= 3 * se + 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_beta_scaling_law(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        pts = rng.uniform(0.0, 5.0, n + 1)
        beta = float(rng.uniform(0.3, 3.0))
        lhs = simplex_exp(pts, beta)
        rhs = beta**n * simplex_exp(beta * pts, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 5.0, 4)
        base = simplex_exp(pts, 1.0)
        perm = rng.permutation(pts)
        assert simplex_exp(perm, 1.0) == pytest.approx(base, rel=1e-13)

    def test_bad_beta(self):
        with pytest.raises(BadExponent):
            simplex_exp([1.0, 2.0], 0.0)


class TestSchattenNorm:
    def test_identity_trace_norm(self):
        assert schatten_norm(np.eye(3), 1) == pytest.approx(3.0)

    @pytest.mark.parametrize("p", [1, 2, 3.5, np.inf])
    def test_rank_one_projector(self, p):
        v = np.array([1.0, 2.0, -1.0], dtype=complex)
        v /= np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        assert schatten_norm(proj, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_hoelder(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        assert schatten_norm(a @ b, 1) <= schatten_norm(a, 2) * schatten_norm(
            b, 2
        ) * (1 + 1e-12)

    def test_infinity_is_operator_norm(self, rng):
        m = random_matrix(rng, 5)
        assert schatten_norm(m, np.inf) == pytest.approx(opnorm(m), rel=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            schatten_norm(np.eye(2), 0.5)
