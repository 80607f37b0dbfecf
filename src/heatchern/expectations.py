"""Heat-kernel expectations: traced simplex transforms of vertex products.

The central object is

    <x_0, ..., x_n; g>_n = integral over the simplex s_0+...+s_n = 1 of
        Tr(gamma U(g) x_0 e^{-s_0 H} x_1 e^{-s_1 H} ... x_n e^{-s_n H})

with H the generator of a ``HeatData`` (Q^2, or the split Hamiltonian).
On the simplex of size beta the substitution s = beta u gives beta^n times
the same integral with beta H, so the plane-beta value is
``beta**n * expectation_value(t.lifted(1, beta), mats)``.
The simplex integral e^{-s_0 H} x_1 ... x_n e^{-s_n H} is the (0, n) block
of exp(M), where M is block upper-bidiagonal with -H on the diagonal
blocks and x_1..x_n on the superdiagonal (Van Loan, IEEE TAC 23, 1978).
Only that corner block is read: each vertex list gives one value, traced
against x_0.  M is built in the eigenbasis of H and conditioned twice:

- shift: the diagonal is -(lambda - lambda_min), and the result is
  multiplied back by e^{-lambda_min}, so small expectations keep their
  relative accuracy;
- balance: the superdiagonal is c x_j and the corner block is divided by
  c^n, with c = max(1, n / (e max_j ||x_j||)).  Without it the deep
  blocks, of size ||x||^k / k!, carry only the absolute accuracy of the
  largest block.

The cost is one exponential of order (n+1) dim; ``MAX_BLOCK_ORDER`` bounds
it before anything is allocated.  A corner past the float range raises
Overflow.  ``expectation_values`` takes many vertex lists at once: the
matrices of one length are exponentiated as stacks of at most
``linalg._STACK_ENTRIES`` entries, whose slices keep the bits of single
exponentials, so a cochain's faces and rotations cost one call where each
took its own.  For the levels <x0, x, ..., x>_n of
``repeated_expectation_series`` no block matrix is formed: by Duhamel they
are the Taylor coefficients of F(z) = Tr(gamma U(g) x0 e^{-H + z x}), with
the Hoelder bound |<x0, x, ..., x>_n| <= ||x0|| ||x||^n Tr(e^{-H}) / n!, and
``linalg.cauchy_circles`` plans circles that read them off samples of F,
one FFT per circle.  The samples come from ``linalg.exp_traces``, the
pairing's sampler, with one shift per circle.  ``MAX_SAMPLES`` bounds them
before any exponential.  The bidiagonal exponential of each level alone is
their reference.

Graded zeros take no exponential.  When gamma is diagonal with entries
exactly +-1 and every eigenvector of H lies exactly in one of its sectors
(``HeatData._sectors``), a vertex in the eigenbasis is even when its
entries across the sectors are all exactly 0, odd when those within one
are, and otherwise neither.  If the front gamma U(g) x_0 and every vertex
are even or odd, with an odd number of odd ones, the value is +0j.  So is
the full computation's, bit for bit: M then has an exact zero pattern
(block (k, l) even or odd as the product of x_{k+1}..x_l), the Taylor
polynomial and the squarings keep it, since each of its zero entries is a
sum of products with an exact 0 factor, and every summand of the trace
against the front has such a factor.  The character's odd levels are
such lists.

A seeded Monte-Carlo quadrature over the simplex provides an independent
route at every instance.  Per chunk of simplex points it keeps the products
x_0 e^{-s_0 H} ... x_j e^{-s_j H} as one (row, point, column) array, so each
vertex costs one GEMM of its (dim*points, dim) matrix and one column
scaling by a contiguous (point, column) block of kernels.  The kernels come
from one rank-1 product and one exponential per block, and the last vertex's
kernel scales only the diagonal the trace reads.  The simplex normalization
and the diagonal's sums reduce n + 1 and dim entries per point, where
numpy's per-row overhead dominates ``sum``; ``_pairwise_sums`` does them as
a few adds of whole rows or columns in numpy's own pairwise order, with the
same bits, and leaves a block's points as one (n + 1, points) array.
The character's level-2 lists tau_2(a_0, da_1, da_2) are summed by
sectors instead.  When H has sectors and the front is even and x_1, x_2
odd in the eigenbasis, only the terms X_0[c,a] X_1[a,b] X_2[b,c] with a
and c in one sector and b in the other survive: dim^3/4 of them on a
balanced grading.  Their coefficients are formed once per call.  The
points run along the contiguous axis: per chunk and sector, one product
and one exponential give the kernels e^{-s_0 lam_a - s_1 lam_b} and
e^{-s_2 lam_c} as (kernel, point) rows, and one real GEMM of the
coefficients against the first gives rows that the second scales and that
are summed over c, a whole row of points at a time.  The points, the mean
and the error formula are the chain's; the values differ from the chain's
in their last bits.  Every other list keeps the chain and its bits, as
does one whose coefficients would pass ``MAX_BLOCK_ORDER``^2 entries (dim
above 256 on a balanced grading).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, ComplexityCap, DimensionMismatch, Overflow
from .linalg import (
    as_matrix,
    _per_stack,
    cauchy_circles,
    circle_levels,
    circle_nodes,
    exp_traces,
    expm,
    opnorm,
    simplex_exp,
)
from .triples import (
    SpectralTriple,
    VertexType,
    _check_shape,
    beta_fn,
    derivative,
    regularity_exponents,
    sobolev_norm,
)

__all__ = [
    "VertexSet",
    "ExpectationValue",
    "beta_fn",
    "heat_expectation",
    "expectation_value",
    "expectation_values",
    "check_insert_identity",
    "check_cyclic",
    "check_d_invariance",
    "duhamel_commutator",
    "bound_expectation",
    "bounded_vertex_bound",
]

# Largest block order (n+1)*dim of one bidiagonal exponential.  A complex
# matrix of this order takes 64 MiB, and expm holds a few at once: well
# inside a 2 GiB address space.  The series levels form no block matrix.
# Its square also bounds the Monte Carlo's blocks of points and its level-2
# sector coefficients (``_graded_level_two``).
MAX_BLOCK_ORDER = 2048
# Most samples the circles of one series take, and most work points * dim^3
# of their exponentials: MAX_SAMPLES^3, that of one exponential at the
# block order budget.  Their stacks hold ``linalg._STACK_ENTRIES`` entries.
MAX_SAMPLES = 2048
# Most entries of one (points, dim, dim) array of the Monte Carlo's vertex
# products (256 KiB, 256 points at dim 8): each chunk of a block runs its
# GEMMs while its products stay in cache.  A chunk of ``_graded_values``
# holds as many bytes in each sector's kernels W, (|sigma| |not sigma|,
# points) reals: 2048 points at dim 8.
_MC_CHUNK_ENTRIES = 2**14


@dataclass
class VertexSet:
    """Ordered vertices with declared smoothing types."""

    vertices: list[np.ndarray]
    types: list[VertexType] | None = None

    def __post_init__(self):
        self.vertices = [as_matrix(v, f"vertex[{k}]") for k, v in enumerate(self.vertices)]
        declared = self.types is not None
        if not declared:
            self.types = [VertexType() for _ in self.vertices]
        if len(self.types) != len(self.vertices):
            raise DimensionMismatch("types list must match vertices")
        if declared:
            reg = regularity_exponents(self.types)
            if not reg.regular:
                raise BadExponent(
                    f"declared vertex types are not regular: etas {reg.etas}"
                )

    @property
    def level(self) -> int:
        return len(self.vertices) - 1

    def regularity(self):
        return regularity_exponents(self.types)


@dataclass
class ExpectationValue:
    value: complex
    method: str
    estimated_error: float

    def __post_init__(self):
        if self.estimated_error < 0:
            raise ValueError("estimated_error must be nonnegative")


def _once_per_object(fn):
    """``fn`` memoized by the identity of its argument, for one batch.  The
    memo holds each argument, so an id stays its object's."""
    done = {}

    def call(a):
        if id(a) not in done:
            done[id(a)] = (a, fn(a))
        return done[id(a)][1]

    return call


def _checked_vertices(t, mats: list[np.ndarray]) -> list[np.ndarray]:
    if not mats:
        raise DimensionMismatch("need at least one vertex")
    for k, m in enumerate(mats):
        _check_shape(f"vertex[{k}]", m, t.dim)
    return mats


def _front_and_rest(t, mats: list[np.ndarray], g: int):
    _checked_vertices(t, mats)
    return t.twist(g) @ mats[0], list(mats[1:])


def _check_block_order(n: int, dim: int):
    """Raise ComplexityCap when a level-n vertex list at ``dim`` needs one
    exponential of block order (n+1) dim above ``MAX_BLOCK_ORDER``.

    ``_simplex_levels`` checks here before it allocates.
    """
    order = (n + 1) * dim
    if order > MAX_BLOCK_ORDER:
        raise ComplexityCap(
            f"block order (n+1)*dim = {n + 1}*{dim} = {order} exceeds budget "
            f"{MAX_BLOCK_ORDER}"
        )


def _check_sample_budget(points: int, dim: int):
    """Raise ComplexityCap when a series' circles take more than
    ``MAX_SAMPLES`` samples, or exponential work points * dim^3 above
    ``MAX_SAMPLES``^3.

    ``repeated_expectation_series`` and ``jlo.pairing`` check here before
    any exponential.
    """
    if points > MAX_SAMPLES:
        raise ComplexityCap(f"the series takes {points} samples, over the budget {MAX_SAMPLES}")
    work = points * dim**3
    if work > MAX_SAMPLES**3:
        raise ComplexityCap(
            f"the series takes {points} samples at dim {dim}: points*dim^3 = {work} "
            f"exceeds budget {MAX_SAMPLES}^3"
        )


def _top_column(x: np.ndarray) -> float:
    """The largest squared column 2-norm of x; inf when a square overflows."""
    with np.errstate(over="ignore"):
        return float((np.abs(x) ** 2).sum(axis=0).max())


def _balance(n: int, xs, column=_top_column, norm=opnorm) -> float:
    """c = max(1, n / (e max_j ||x_j||)), 1 when every x_j is 0.

    The largest column 2-norm is a lower bound on ||x_j||: when its square
    passes (n / e)^2 by more than its rounding, c is 1 exactly and no SVD
    runs.  ``column`` and ``norm`` give a vertex's squared column bound and
    its norm; a batch passes lookups that take each once per vertex.
    """
    top_column = max((column(x) for x in xs), default=0.0)
    if top_column >= (n / math.e) ** 2 * (1.0 + 1e-8):
        return 1.0
    x_norm = max((norm(x) for x in xs), default=0.0)
    return max(1.0, n / (math.e * x_norm)) if x_norm > 0 else 1.0


def _parity(xe: np.ndarray, cross: np.ndarray) -> int:
    """+1 when every entry of xe that ``cross`` marks is exactly 0, -1 when
    every other entry is, else 0."""
    if not xe[cross].any():
        return 1
    return -1 if not xe[~cross].any() else 0


def _graded_zeros(signs, pairs, eig) -> list[bool]:
    """Per pair, whether the sector signs of the eigenbasis force its trace
    to 0: every vertex, the front included, has a parity +-1 in the
    eigenbasis (``eig``), and their product is -1.  None for ``signs``
    decides none.  A distinct vertex object takes its parity once."""
    if signs is None:
        return [False] * len(pairs)
    cross = signs[:, None] != signs[None, :]
    parity = _once_per_object(lambda x: _parity(eig(x), cross))
    out = []
    for front, rest in pairs:
        p = parity(front)
        for x in rest:
            p *= parity(x) if p else 0
        out.append(p == -1)
    return out


def _simplex_levels(t, pairs, with_mags: bool = False):
    """<front, rest_1, ..., rest_n> for each (front, rest) of ``pairs``;
    every rest has the same length n.

    Each front already carries the grading and group factors.  Returns the
    values, shape (len(pairs),), read off the corner block (0, n) of each
    exponential, and, when ``with_mags``, per pair the sum of the moduli of
    the summands of the final trace, which scales the kernel's rounding
    error (else None).  A pair the grading makes 0 (``_graded_zeros``,
    from ``HeatData._sectors``) gets value +0j and magnitude 0.0 with no
    balance and no exponential: the bits its exponential would give.  Each
    other pair's bidiagonal matrix is exponentiated in stacks of at most
    ``linalg._STACK_ENTRIES`` entries (a stack of one when one matrix alone
    holds more); a slice has the bits of that matrix's own exponential, so
    each pair gets the bits a call on it alone gets.  ``_check_block_order``
    runs, and the stack size is fixed, before any allocation.  A corner
    that leaves the float range raises Overflow.  A vertex may recur,
    within a rest and across pairs: each distinct object (keyed by
    identity) is converted to the eigenbasis once, and its parity, column
    bound and ``_balance`` SVD are taken once.
    """
    lam, basis = t.heat_data()
    dim = lam.size
    n = len(pairs[0][1])
    _check_block_order(n, dim)
    order = (n + 1) * dim
    per_stack = _per_stack(order * order)
    vh = basis.conj().T
    to_eig = _once_per_object(lambda x: vh @ x @ basis)
    live = [i for i, zero in enumerate(_graded_zeros(t._sectors, pairs, to_eig)) if not zero]
    column, norm = _once_per_object(_top_column), _once_per_object(opnorm)
    # each pair's distinct vertices in order of first appearance, as a call
    # on that pair alone takes them
    cs = {
        i: _balance(n, [to_eig(x) for x in {id(x): x for x in pairs[i][1]}.values()], column, norm)
        for i in live
    }
    lam_min = float(lam.min())
    diag = np.tile(-(lam - lam_min), n + 1)
    vals = np.zeros(len(pairs), dtype=complex)
    mags = np.zeros(len(pairs)) if with_mags else None
    for lo in range(0, len(live), per_stack):
        chunk = live[lo : lo + per_stack]
        m = np.zeros((len(chunk), order, order), dtype=complex)
        m[:, np.arange(order), np.arange(order)] = diag
        for j, i in enumerate(chunk):
            for k, x in enumerate(pairs[i][1]):
                block = slice(k * dim, (k + 1) * dim), slice((k + 1) * dim, (k + 2) * dim)
                m[(j,) + block] = cs[i] * to_eig(x)
        with np.errstate(over="ignore", invalid="ignore"):
            corners = expm(m, norm_cap=np.inf)[:, :dim, n * dim :]
        if not np.isfinite(corners).all():
            raise Overflow(f"the level-{n} simplex exponential leaves the float range")
        for j, i in enumerate(chunk):
            fe, corner = to_eig(pairs[i][0]), corners[j]
            scale = np.exp(-lam_min - n * math.log(cs[i]))
            vals[i] = scale * np.einsum("ij,ji->", fe, corner)
            if with_mags:
                mags[i] = scale * np.einsum("ij,ji->", np.abs(fe), np.abs(corner))
    return vals, mags


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a C-contiguous (rows, columns) array, with its
    bits, as a few column adds (``_pairwise_sums`` of its columns)."""
    return _pairwise_sums(a.T, 2 if a.dtype.kind == "c" else 1)


def _pairwise_sums(a: np.ndarray, per: int) -> np.ndarray:
    """The sum of a[0], a[1], ... elementwise, each entry with the bits of
    numpy's ``sum`` along a row of a.shape[0] entries of ``per`` doubles.

    numpy sums each row from +0 in its pairwise order, and over short rows
    its per-row overhead is most of the cost, so here each step is one add
    of whole slices.  A row of fewer than 8 doubles is summed left to right.
    From 8 doubles it keeps 8 accumulators (4 complex ones) over blocks of
    8 doubles, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), or
    (c0+c1)+(c2+c3), and adds the remaining entries left to right.  A row
    above 128 doubles is split in halves, the first a multiple of 8 doubles.
    A complex entry's two parts may lie anywhere in ``a``'s trailing axes,
    with ``per`` = 2: numpy adds them separately.
    """
    rows = a.shape[0]
    if rows * per > 128:
        half = rows * per // 2
        half = (half - half % 8) // per
        out = _pairwise_sums(a[:half], per) + _pairwise_sums(a[half:], per)
    elif rows * per < 8:
        out = a[0] + 0.0
        for j in range(1, rows):
            out += a[j]
    else:
        k = 8 // per
        full = rows - rows % k
        acc = a[:k] + a[k : 2 * k] if full > k else a[:k]
        for lo in range(2 * k, full, k):
            acc += a[lo : lo + k]
        parts = list(acc)
        while len(parts) > 1:
            parts = [parts[i] + parts[i + 1] for i in range(0, len(parts), 2)]
        out = parts[0]
        for j in range(full, rows):
            out += a[j]
    out += 0.0  # the row's sum is added to +0, so a -0 comes out as +0
    return out


def _chain_values(lam: np.ndarray, mats: list[np.ndarray], block: int):
    """The per-point values of the vertex chain x_0 e^{-s_0 H} ... x_n e^{-s_n H}:
    a function of a block's simplex points s, shape (points, n + 1).

    A block's vertex products run in chunks of at most
    ``_MC_CHUNK_ENTRIES`` entries per (dim, points, dim) array (one point
    when dim^2 alone is more), so each chunk's products stay in cache.  In
    the eigenbasis of H each e^{-s_j H} scales columns, and every point
    shares the vertex x_j.  So the products are kept as (row, point,
    column): each vertex step is one GEMM of the chunk's (dim*points, dim)
    matrix by x_j, then the in-place scaling by the kernels ker[j], a
    contiguous (point, column) array broadcast over the rows.
    ker[j, point, column] = e^{-s_j lam_c} comes from one rank-1 product (a
    single rounding per entry, as s_j lam_c alone) and one exponential per
    block; x_0 is repeated over a chunk's points once per call.  The trace
    reads only the diagonal, so the last vertex's kernel scales only that:
    sum_i C[i, point, i] ker[n, point, i], summed over a contiguous (point,
    dim) array as ``np.trace`` sums its diagonal.  Each entry is the same
    length-dim dot product, each scaling the same product and each trace
    the same sum as the per-point products take; the tests hold the result
    to their bits.
    """
    dim, n = lam.size, len(mats) - 1
    chunk = max(1, _MC_CHUNK_ENTRIES // dim**2)
    # x_0 over one chunk's points, as (row, point, column), and room for x_0 K_0
    x0 = np.repeat(mats[0][:, None, :], min(chunk, block), axis=1)
    x0k0 = np.empty(x0.size, dtype=complex)
    # contiguous (point, dim): its row sums keep np.trace's pairwise order
    diag = np.empty((min(chunk, block), dim), dtype=complex)

    def values(s: np.ndarray) -> np.ndarray:
        m = s.shape[0]
        # ker[j, point, column] = e^{-s_j lam}: one product per entry
        ker = s.T.reshape(-1, 1) @ (-lam)[None]
        ker = np.exp(ker, out=ker).reshape(n + 1, m, dim)
        vals = np.empty(m, dtype=complex)
        for lo in range(0, m, chunk):
            k = ker[:, lo : lo + chunk]
            p = k.shape[1]
            cur = x0[:, :p]
            if n:
                cur = np.multiply(cur, k[0], out=x0k0[: cur.size].reshape(cur.shape))
            for j in range(1, n + 1):
                cur = (cur.reshape(dim * p, dim) @ mats[j]).reshape(dim, p, dim)
                if j < n:
                    cur *= k[j]
            np.multiply(np.diagonal(cur, axis1=0, axis2=2), k[n], out=diag[:p])
            vals[lo : lo + p] = _row_sums(diag[:p])
        return vals

    return values


def _simplex_points(e: np.ndarray) -> np.ndarray:
    """The simplex points of draws e, shape (points, n + 1), as a contiguous
    (n + 1, points) array: e / _row_sums(e)[:, None] transposed, with its
    bits, by the same adds along rows."""
    s = e.T.copy()
    s /= _pairwise_sums(s, 1)
    return s


def _graded_values(lam: np.ndarray, mats: list[np.ndarray], signs: np.ndarray):
    """``_chain_values`` up to rounding, for a level-2 list whose front is
    gamma-even and whose x_1 and x_2 are gamma-odd in the eigenbasis: a
    function of a block's simplex points s, a contiguous (3, points) array.

    In the eigenbasis a point's value is the sum over the sectors sigma of
    sum_{c, a in sigma, b not in sigma} C[c, a, b] e^{-s_0 lam_a - s_1 lam_b}
    e^{-s_2 lam_c}, with C[c, a, b] = X_0[c, a] X_1[a, b] X_2[b, c]: the
    grading makes every other term 0.  Each sector's C is formed once per
    call, as a real (c, (a, b)) matrix whose rows hold each c's real and
    imaginary parts in turn.

    The points run along the contiguous axis.  Per chunk of points and per
    sector, one product ``rates @ s`` (one rounding per entry, as a rank-2
    or a rank-1 product alone) and one exponential give
    W = e^{-s_0 lam_a - s_1 lam_b}, shape (|sigma| |not sigma|, points), and
    K = e^{-s_2 lam_c}, shape (|sigma|, points).  Then one real GEMM C @ W
    gives each c's real and imaginary rows, which are scaled by K's row of
    that c and summed over c in the order of ``_row_sums``.  A sector's W
    holds at most 2 ``_MC_CHUNK_ENTRIES`` doubles, the bytes of the chain's
    chunk; C has dim |sigma| |not sigma| complex entries in all.  The sums
    are the chain's, in another order: the values move from the chain's in
    their last bits.
    """
    sectors = [np.flatnonzero(signs == 1), np.flatnonzero(signs == -1)]
    x0, x1, x2 = mats
    width = sectors[0].size * sectors[1].size
    parts = []
    for a, b in (sectors, sectors[::-1]):
        # coef[a, b, c] = X_0[c, a] X_1[a, b] X_2[b, c]
        coef = np.multiply(x0[np.ix_(a, a)].T[:, None, :], x1[np.ix_(a, b)][:, :, None],
                           order="C")
        coef *= x2[np.ix_(b, a)][None]
        # rates @ s: the exponents -lam_a s_0 - lam_b s_1 of W, then -lam_c s_2
        rates = np.zeros((width + a.size, 3))
        rates[:width, 0], rates[:width, 1] = -np.repeat(lam[a], b.size), -np.tile(lam[b], a.size)
        rates[width:, 2] = -lam[a]
        parts.append((rates, np.ascontiguousarray(coef.reshape(width, a.size).view(float).T)))
    chunk = max(1, 2 * _MC_CHUNK_ENTRIES // width)
    most = max(map(len, sectors))
    wk, cw = np.empty((width + most) * chunk), np.empty(2 * most * chunk)

    def values(points: np.ndarray) -> np.ndarray:
        m = points.shape[1]
        vals = np.zeros(m, dtype=complex)
        re_im = vals.view(float).reshape(m, 2).T  # its parts as (2, points) rows
        for lo in range(0, m, chunk):
            s = points[:, lo : lo + chunk]
            p = s.shape[1]
            for rates, coef in parts:
                ex = np.matmul(rates, s, out=wk[: len(rates) * p].reshape(-1, p))
                np.exp(ex, out=ex)
                out = np.matmul(coef, ex[:width], out=cw[: len(coef) * p].reshape(-1, p))
                out = out.reshape(-1, 2, p)
                out *= ex[width:, None]
                re_im[:, lo : lo + p] += _pairwise_sums(out, 2)
        return vals

    return values


def _graded_level_two(t, mats: list[np.ndarray]) -> np.ndarray | None:
    """The sector signs of ``t`` when ``mats`` is a level-2 list whose
    eigenbasis parities (``_parity``) are (+1, -1, -1), the pattern of
    tau_2(a_0, da_1, da_2), and its coefficients fit in ``MAX_BLOCK_ORDER``^2
    entries; else None."""
    signs = t._sectors
    if signs is None or len(mats) != 3:
        return None
    if (signs == 1).sum() * (signs == -1).sum() * signs.size > MAX_BLOCK_ORDER**2:
        return None
    cross = signs[:, None] != signs[None, :]
    return signs if [_parity(x, cross) for x in mats] == [1, -1, -1] else None


def _monte_carlo(t, front, rest, samples: int, seed: int) -> tuple[complex, float]:
    """Monte-Carlo over the simplex; error is three standard errors.

    Simplex points are normalized i.i.d. exponentials (uniform on the
    unit simplex), drawn by ``standard_exponential``: the bits of
    ``exponential`` at scale 1.  They are drawn in blocks of at most 4096
    points, and of at most ``MAX_BLOCK_ORDER``^2 // dim^2, and a block's
    points are one contiguous (n + 1, points) array (``_simplex_points``).
    Its per-point values come from ``_chain_values``, which reads the
    transpose, or, for a level-2 list that ``_graded_level_two`` accepts
    (the character's tau_2(a_0, da_1, da_2) when the eigenvectors of H lie
    in gamma's sectors), from ``_graded_values``: the same points and the
    same terms, summed in another order, so those values move in their
    last bits from the chain's.  The variance is each block's sum of
    |v - block mean|^2, combined across blocks by Chan's pairwise update,
    so it does not cancel when the samples barely vary; the mean is the
    plain sum over samples.
    """
    lam, basis = t.heat_data()
    dim = lam.size
    n = len(rest)
    rng = np.random.default_rng(seed)
    mats = [basis.conj().T @ m @ basis for m in [front] + rest]
    measure = 1.0 / math.factorial(n)
    tot = 0.0 + 0.0j
    sq_dev = 0.0  # sum of |v - mean|^2 over the samples done
    done = 0
    block = max(1, min(4096, samples, MAX_BLOCK_ORDER**2 // dim**2))
    signs = _graded_level_two(t, mats)
    if signs is None:
        chain = _chain_values(lam, mats, block)

        def point_values(s):
            return chain(s.T)
    else:
        point_values = _graded_values(lam, mats, signs)
    while done < samples:
        m = min(block, samples - done)
        vals = point_values(_simplex_points(rng.standard_exponential(size=(m, n + 1))))
        block_sum = complex(vals.sum())
        block_mean = block_sum / m
        sq_dev += float((np.abs(vals - block_mean) ** 2).sum())
        if done:
            sq_dev += abs(block_mean - tot / done) ** 2 * done * m / (done + m)
        tot += block_sum
        done += m
    mean = tot / samples
    se = math.sqrt(sq_dev) / samples
    return measure * mean, 3.0 * measure * se


def expectation_value(t, mats, g: int = 0) -> complex:
    """Exact <x_0,...,x_n;g>_n as a bare complex number.

    ``t`` is any ``HeatData``: a SpectralTriple, a SplitTriple or a lift.
    """
    return expectation_values(t, [mats], g)[0]


def expectation_values(t, lists, g: int = 0) -> list[complex]:
    """``expectation_value`` on each vertex list of ``lists``, with its bits.

    The lists are checked in order, each as ``expectation_value`` checks
    its own, and those of one length share one ``_simplex_levels`` call: a
    stacked exponential, and one eigenbasis conversion per distinct vertex
    object.  An input object that recurs is converted (``as_matrix``)
    once, and a first vertex that recurs is multiplied by gamma U(g) once.
    """
    matrix = _once_per_object(as_matrix)
    twisted = _once_per_object(lambda x: t.twist(g) @ x)
    groups = {}
    for i, mats in enumerate(lists):
        mats = _checked_vertices(t, [matrix(m) for m in mats])
        groups.setdefault(len(mats), []).append((i, twisted(mats[0]), mats[1:]))
    out = [0j] * sum(map(len, groups.values()))
    for members in groups.values():
        vals, _ = _simplex_levels(t, [(front, rest) for _, front, rest in members])
        for (i, _, _), v in zip(members, vals):
            out[i] = complex(v)
    return out


def repeated_expectation_series(t, x0, x, max_n: int, g: int = 0) -> list[complex]:
    """<x0, x, ..., x>_n for n = 0..max_n, from samples on circles.

    They are the Taylor coefficients of F(z) = Tr(gamma U(g) x0 e^{-H + z x}),
    whose level n has the Hoelder bound ||x0|| ||x||^n Tr(e^{-H}) / n!.
    F is sampled in the eigenbasis of H, shifted by its least eigenvalue,
    on the circles ``linalg.cauchy_circles`` plans for every level at equal
    weight; each sample on a circle of spread u is scaled by e^{-u} (the
    shifts of ``linalg.exp_traces``), so deep levels stay in range.  Raises
    ValueError for a negative ``max_n`` and ComplexityCap, before any
    exponential, over ``MAX_SAMPLES``.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    front, (xm,) = _front_and_rest(t, [as_matrix(x0), as_matrix(x)], g)
    lam, basis = t.heat_data()
    # every level takes at least one sample: this bounds the plan too
    _check_sample_budget(max_n + 1, lam.size)
    vh = basis.conj().T
    xe = vh @ xm @ basis
    circles = cauchy_circles(opnorm(xe) if max_n else 0.0, np.zeros(max_n + 1))
    counts = [c.points for c in circles]
    _check_sample_budget(sum(counts), lam.size)
    shifts = np.repeat([c.spread for c in circles], counts)
    zs = circle_nodes(circles)
    lam_min = float(lam.min())
    values = exp_traces(vh @ front @ basis, np.diag(lam_min - lam), xe, zs, shifts)
    log_weights = np.full(max_n + 1, -lam_min)
    for c in circles:
        log_weights[c.lo : c.hi + 1] += c.spread
    return [complex(v) for v in circle_levels(values, circles, log_weights)]


def _vertex_list(x) -> list[np.ndarray]:
    """The vertices of a VertexSet, or of a plain list of matrices."""
    return (x if isinstance(x, VertexSet) else VertexSet(list(x))).vertices


def _checked_int(value, name: str, least: int) -> int:
    """The Monte Carlo's ``name`` as a Python int: TypeError unless it is an
    integer (a bool is not), ValueError below ``least``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"Monte Carlo {name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"Monte Carlo needs {name} >= {least}, got {count}")
    return count


def heat_expectation(
    t,
    x,
    g: int = 0,
    method: str = "exact",
    samples: int = 200_000,
    seed: int = 0,
) -> ExpectationValue:
    """Expectation of a vertex set against the heat semigroup of Q^2.

    ``x`` may be a VertexSet (carrying types) or a plain list of matrices
    (untyped).  ``method`` selects the exact block exponential or seeded
    Monte-Carlo simplex quadrature.  Before any draw the quadrature raises
    TypeError when ``samples`` or ``seed`` is not an integer (a bool, a
    float, NaN), and ValueError when ``samples`` is below 1, which has no
    mean, or ``seed`` below 0.
    """
    front, rest = _front_and_rest(t, _vertex_list(x), g)
    if method == "exact":
        vals, mags = _simplex_levels(t, [(front, rest)], with_mags=True)
        val, err = complex(vals[0]), 1e-13 * float(mags[0])
    elif method == "quadrature":
        count, seed = _checked_int(samples, "samples", 1), _checked_int(seed, "seed", 0)
        val, err = _monte_carlo(t, front, rest, count, seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ExpectationValue(value=val, method=method, estimated_error=err)


def check_insert_identity(t: SpectralTriple, x, g: int = 0) -> float:
    """|<x_0..x_n> - sum_j <x_0..x_{j-1}, I, x_j..x_n>| over inserts j=1..n+1.

    Every term is one list of a single ``expectation_values`` call.
    """
    verts = _vertex_list(x)
    ident = np.eye(t.dim, dtype=complex)
    inserts = [verts[:j] + [ident] + verts[j:] for j in range(1, len(verts) + 1)]
    *vals, lhs = expectation_values(t, inserts + [verts], g)
    rhs = 0.0 + 0.0j
    for v in vals:
        rhs += v
    return abs(lhs - rhs)


def check_cyclic(t: SpectralTriple, x, g: int = 0) -> float:
    """|<x_0..x_n> - <gamma U(g)* x_n U(g) gamma, x_0..x_{n-1}>|."""
    verts = _vertex_list(x)
    rotated = t.conj_gamma(t.conj_group_inv(verts[-1], g))
    lhs, rhs = expectation_values(t, [verts, [rotated] + verts[:-1]], g)
    return abs(lhs - rhs)


def check_d_invariance(t: SpectralTriple, x, g: int = 0) -> float:
    """|sum_j <x_0^gamma,..,x_{j-1}^gamma, dx_j, x_{j+1},..,x_n>|.

    Every term is one list of a single ``expectation_values`` call.
    """
    verts = _vertex_list(x)
    graded = [t.conj_gamma(v) for v in verts[:-1]]
    lists = [graded[:j] + [derivative(t, verts[j])] + verts[j + 1 :] for j in range(len(verts))]
    tot = 0.0 + 0.0j
    for v in expectation_values(t, lists, g):
        tot += v
    return abs(tot)


def duhamel_commutator(t: SpectralTriple, b, s: float = 1.0) -> float:
    """Deviation between [b, e^{-sQ^2}] and its divided-difference form.

    The right side is assembled entrywise in the eigenbasis of Q^2 from
    the kernel (e^{-s l_i} - e^{-s l_j})/(l_j - l_i) applied to [Q^2, b],
    with the confluent limit s e^{-s l} on coincident eigenvalues.
    """
    bm = as_matrix(b, "b")
    if not (0 < s <= 1):
        raise BadExponent(f"s must lie in (0, 1], got {s}")
    lam, v = t.heat_data()
    vh = v.conj().T
    heat = (v * np.exp(-s * lam)) @ vh
    lhs = bm @ heat - heat @ bm
    qsq = t.Q @ t.Q
    d2b = qsq @ bm - bm @ qsq
    d2e = vh @ d2b @ v
    n = t.dim
    kern = np.empty((n, n))
    pair_cache: dict = {}
    for i in range(n):
        for j in range(n):
            key = (min(lam[i], lam[j]), max(lam[i], lam[j]))
            val = pair_cache.get(key)
            if val is None:
                val = simplex_exp(np.array(key), s)
                pair_cache[key] = val
            kern[i, j] = val
    rhs = v @ (d2e * kern) @ vh
    return opnorm(lhs - rhs)


def bound_expectation(
    t: SpectralTriple, x: VertexSet, g: int = 0, mu: float = 0.5
) -> tuple[float, bool]:
    """Regularity bound on |<X;g>| from the declared vertex types.

    Returns (bound, satisfied) with
    bound = m1 m2^{n+1} / Gamma((n+1) eta_global) * prod ||x_j||_{(-beta_j, alpha_j)},
    m1 = Tr(e^{-(1-mu) Q^2}), m2 = 2 Gamma(eta_local) mu^{-(1-eta_global)}.
    """
    if not (0 < mu < 1):
        raise BadExponent(f"mu must lie in (0, 1), got {mu}")
    reg = x.regularity()
    lam, _ = t.heat_data()
    n = x.level
    m1 = float(np.sum(np.exp(-(1.0 - mu) * lam)))
    m2 = 2.0 * math.gamma(reg.eta_local) * mu ** (-(1.0 - reg.eta_global))
    prod = 1.0
    for v, vt in zip(x.vertices, x.types):
        prod *= sobolev_norm(t, v, -vt.beta, vt.alpha)
    bound = m1 * m2 ** (n + 1) / math.gamma((n + 1) * reg.eta_global) * prod
    value = expectation_value(t, x.vertices, g)
    return bound, bool(abs(value) <= bound * (1.0 + 1e-12))


def bounded_vertex_bound(t: SpectralTriple, x: VertexSet, g: int = 0) -> tuple[float, bool]:
    """Sharper bound Tr(e^{-Q^2}) prod ||x_j|| / n! for bounded vertices."""
    lam, _ = t.heat_data()
    n = x.level
    prod = 1.0
    for v in x.vertices:
        prod *= opnorm(v)
    bound = float(np.sum(np.exp(-lam))) * prod / math.factorial(n)
    value = expectation_value(t, x.vertices, g)
    return bound, bool(abs(value) <= bound * (1.0 + 1e-12))
