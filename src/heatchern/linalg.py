"""Dense complex linear-algebra kernels.

Everything downstream (simplex transforms, pairings, sweeps) reduces to the
four operations here: Hermitian eigendecomposition, a general matrix
exponential, Schatten norms, and divided differences of the exponential
evaluated through the exponential of an upper-bidiagonal matrix.  The
exponential scales its argument to 1-norm at most 0.5, evaluates the
degree-18 Taylor polynomial there by Paterson-Stockmeyer (7 matrix
products) and squares back.  It also takes a stack of matrices, shape
(k, n, n), and returns for each slice the bits a call on that slice alone
returns; the Gauss-Hermite nodes of a pairing are evaluated that way.  The
levels of the pairing series are the first block row of the exponential
of an (N+1) dim block-Toeplitz matrix, which ``expm_toeplitz_row``
computes with the same polynomial and scaling on first block rows alone,
by Horner, at cost O(s N^2 dim^3) for s squarings.  All functions are
pure; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadExponent, DimensionMismatch, NotHermitian, Overflow

__all__ = [
    "HermitianEigenSystem",
    "as_matrix",
    "eig_hermitian",
    "expm",
    "expm_toeplitz_row",
    "opnorm",
    "simplex_exp",
    "schatten_norm",
]

_TAYLOR_THETA = 0.5  # scale target for the Taylor core
_TAYLOR_TERMS = 18  # 0.5^18/18! ~ 6e-22, far below double rounding
_TAYLOR_COEFFS = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_TERMS + 1))


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array and check finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def opnorm(m) -> float:
    """Operator (spectral) norm: the largest singular value.

    The same LAPACK call as ``np.linalg.norm(m, 2)``, with the same bits,
    without its dispatch.
    """
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


@dataclass
class HermitianEigenSystem:
    """Ascending eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(m, tol: float = 1e-10) -> HermitianEigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the relative asymmetry exceeds ``tol``; the
    message reports the worst offending entry.
    """
    a = as_matrix(m)
    scale = max(opnorm(a), 1e-300)
    dev = np.abs(a - a.conj().T)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if dev[i, j] > tol * scale:
        raise NotHermitian(
            f"entry ({i},{j}) deviates from Hermitian symmetry by "
            f"{dev[i, j]:.3e} (tolerance {tol * scale:.3e})"
        )
    w, v = np.linalg.eigh(a)
    return HermitianEigenSystem(eigenvalues=w, eigenvectors=v)


def expm(m, norm_cap: float = 1e3) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The argument is scaled by 2^-s to 1-norm at most 0.5, the degree-18
    Taylor polynomial is evaluated there (``_taylor``) and squared s times.
    ``m`` is one square matrix or a stack of them, shape (k, n, n).  Each
    slice of a stack gets its own scaling and the same core, so it equals
    bit for bit the exponential of that slice alone.  Accurate to ~1e-13
    relative for inputs of 1-norm up to a few tens.  Raises Overflow when a
    1-norm exceeds ``norm_cap``.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim == 3:
        return _expm_stack(a, norm_cap)
    a = as_matrix(a)
    nrm = float(np.linalg.norm(a, 1))
    if nrm > norm_cap:
        raise Overflow(f"matrix 1-norm {nrm:.3e} exceeds cap {norm_cap:.3e}")
    if nrm == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    s = max(0, int(np.ceil(np.log2(nrm / _TAYLOR_THETA))))
    out = _taylor(a / (2.0**s))
    for _ in range(s):
        out = out @ out
    return out


def _taylor(x: np.ndarray) -> np.ndarray:
    """The degree-18 Taylor polynomial of exp at x, or at each slice of a stack x.

    Paterson-Stockmeyer: with X^2, X^3 and X^4 formed, the polynomial is
    B_0 + X^4 (B_1 + X^4 (B_2 + X^4 (B_3 + X^4 B_4))), where B_j is the
    cubic sum_{i<4} X^i / (4j+i)! (B_4 stops at X^2).  That is 7 matrix
    products against Horner's 17.  The products act slice by slice and
    every other step is elementwise, so a slice of a stack gets the bits
    of a call on that slice alone.
    """
    diag = np.arange(x.shape[-1])
    x2 = x @ x
    powers = (x, x2, x2 @ x)
    x4 = x2 @ x2
    out = None
    for j in range(_TAYLOR_TERMS // 4, -1, -1):
        c = _TAYLOR_COEFFS[4 * j : 4 * j + 4]
        block = c[1] * x
        for ci, p in zip(c[2:], powers[1:]):
            block += ci * p
        if out is not None:
            block += x4 @ out
        block[..., diag, diag] += c[0]
        out = block
    return out


def _expm_stack(a: np.ndarray, norm_cap: float) -> np.ndarray:
    """``expm`` on each slice of a (k, n, n) stack, with the same arithmetic.

    The single-matrix path keeps its own scalar scaling, which at small n
    is cheaper than the masks a stack needs.
    """
    if a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"matrix stack must be (k, n, n), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix stack contains non-finite entries")
    nrm = np.linalg.norm(a, 1, axis=(1, 2))
    worst = float(nrm.max(initial=0.0))
    if worst > norm_cap:
        raise Overflow(f"matrix 1-norm {worst:.3e} exceeds cap {norm_cap:.3e}")
    with np.errstate(divide="ignore"):  # log2(0) = -inf gives s = 0
        s = np.maximum(0.0, np.ceil(np.log2(nrm / _TAYLOR_THETA))).astype(int)
    out = _taylor(a / (2.0**s)[:, None, None])
    for j in range(int(s.max(initial=0))):
        live = s > j
        sq = out[live]
        out[live] = sq @ sq
    return out


def expm_toeplitz_row(d, x, n: int) -> np.ndarray:
    """First block row [E_0 | E_1 | ... | E_n] of exp(M), shape (dim, (n+1)*dim).

    M has order (n+1)*dim, diag(d) on every diagonal block (``d`` real)
    and the (dim, dim) matrix ``x`` on every superdiagonal block (none
    when n = 0).  Upper block-Toeplitz matrices are closed under products,
    and a product of two of them is determined by their first block rows,
    so this runs the steps of ``expm`` on M (the same polynomial and
    scaling, and the same number of squarings) on first block rows alone.
    The polynomial is evaluated by Horner, not by ``_taylor``: powers of M
    would need full Toeplitz products, where a Horner step costs one
    (dim, dim) by (dim, n*dim) product.  A squaring costs one
    (dim, (n+1)*dim) by M-sized product, so the cost is O(s n^2 dim^3)
    against O(s n^3 dim^3) for ``expm`` on M.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=complex)
    dim = d.size
    width = (n + 1) * dim
    diag = (np.arange(dim), np.arange(dim))
    out = np.zeros((dim, width), dtype=complex)
    out[diag] = 1.0
    # the 1-norm of M: column j of block k >= 1 holds |d_j| and column j of x
    nrm = float((np.abs(d) + (np.abs(x).sum(axis=0) if n else 0.0)).max())
    if nrm == 0.0:
        return out
    s = max(0, int(np.ceil(np.log2(nrm / _TAYLOR_THETA))))
    ds, xs = d / 2.0**s, x / 2.0**s
    for k in range(_TAYLOR_TERMS, 0, -1):
        # Horner step I + (M / 2^s) R / k on the first block row of R
        step = ds[:, None] * out
        step[:, dim:] += xs @ out[:, : width - dim]
        out = step / k
        out[diag] += 1.0
    # Block row j of the current power is its first row shifted right by
    # j blocks: the windows of the zero-padded first row, one block apart.
    pad = np.zeros((dim, n * dim), dtype=complex)
    for _ in range(s):
        win = sliding_window_view(np.concatenate([pad, out], axis=1), width, axis=1)
        toeplitz = win[:, ::-dim].transpose(1, 0, 2).reshape(width, width)
        out = out @ toeplitz
    return out


def simplex_exp(points, beta: float = 1.0) -> float:
    """Integral of exp(-sum s_j lambda_j) over the scaled simplex.

    The integration region is the set of nonnegative s with
    s_0 + ... + s_n = beta, carrying the measure of total mass beta^n/n!.
    Evaluated exactly as beta^n times the (0, n) entry of the exponential
    of the upper-bidiagonal matrix with -beta*points on the diagonal and
    ones on the superdiagonal (confluent divided differences), which is
    stable under coincident points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise DimensionMismatch("points must be a nonempty 1-d real vector")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    if not (beta > 0):
        raise BadExponent(f"beta must be positive, got {beta}")
    n = pts.size - 1
    if n == 0:
        return float(np.exp(-beta * pts[0]))
    # Shift by the minimum to keep the exponential well-scaled; the shift
    # factors out of every divided difference.
    shift = float(pts.min())
    b = np.diag(-beta * (pts - shift)).astype(complex) + np.diag(
        np.ones(n), 1
    )
    val = expm(b, norm_cap=np.inf)[0, n].real
    return float(beta**n * np.exp(-beta * shift) * val)


def schatten_norm(m, p) -> float:
    """Schatten p-norm (sum of singular values to the p-th power)^(1/p).

    p = inf gives the operator norm; p = 1 the trace norm.
    """
    a = as_matrix(m)
    if p != np.inf and p < 1:
        raise BadExponent(f"Schatten exponent must be >= 1, got {p}")
    sv = np.linalg.svd(a, compute_uv=False)
    if p == np.inf:
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))
