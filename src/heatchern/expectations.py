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
and the diagonal's sums reduce rows of n + 1 and dim entries, where
numpy's per-row overhead dominates ``sum``; ``_row_sums`` does them as a
few column adds in numpy's own pairwise order, with the same bits.
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
MAX_BLOCK_ORDER = 2048
# Most samples the circles of one series take, and most work points * dim^3
# of their exponentials: MAX_SAMPLES^3, that of one exponential at the
# block order budget.  Their stacks hold ``linalg._STACK_ENTRIES`` entries.
MAX_SAMPLES = 2048
# Most entries of one (points, dim, dim) array of the Monte Carlo's vertex
# products (256 KiB, 256 points at dim 8): each chunk of a block runs its
# GEMMs while its products stay in cache.
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
    bits, as a few column adds.

    numpy sums each row from +0 in its pairwise order, and over short rows
    its per-row overhead is most of the cost.  A row of fewer than 8 doubles
    is summed left to right.  From 8 doubles it keeps 8 accumulators (4
    complex ones) over blocks of 8 doubles, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), or (c0+c1)+(c2+c3), and adds the
    remaining columns left to right.  Rows above 128 doubles, which numpy
    splits in halves, take ``sum`` itself.
    """
    per = 2 if a.dtype.kind == "c" else 1  # doubles per entry
    cols = a.shape[1]
    if cols * per > 128:
        return a.sum(axis=1)
    if cols * per < 8:
        out = a[:, 0] + 0.0
        for j in range(1, cols):
            out += a[:, j]
        return out
    k = 8 // per
    full = cols - cols % k
    acc = a[:, :k].copy()
    for lo in range(k, full, k):
        acc += a[:, lo : lo + k]
    parts = [acc[:, i] for i in range(k)]
    while len(parts) > 1:
        parts = [parts[i] + parts[i + 1] for i in range(0, len(parts), 2)]
    out = parts[0]
    for j in range(full, cols):
        out += a[:, j]
    out += 0.0  # the row's sum is added to +0, so a -0 comes out as +0
    return out


def _monte_carlo(t, front, rest, samples: int, seed: int) -> tuple[complex, float]:
    """Monte-Carlo over the simplex; error is three standard errors.

    Simplex points are normalized i.i.d. exponentials (uniform on the
    unit simplex).  They are drawn in blocks of at most 4096 points, and
    of at most ``MAX_BLOCK_ORDER``^2 // dim^2.  A block's vertex products
    run in chunks of at most ``_MC_CHUNK_ENTRIES`` entries per (dim, points,
    dim) array (one point when dim^2 alone is more), so each chunk's
    products stay in cache.  In the eigenbasis of H each e^{-s_j H} scales
    columns, and every point shares the vertex x_j.  So the products are
    kept as (row, point, column): each vertex step is one GEMM of the
    chunk's (dim*points, dim) matrix by x_j, then the in-place scaling by
    the kernels ker[j], a contiguous (point, column) array broadcast over
    the rows.  ker[j, point, column] = e^{-s_j lam_c} comes from one rank-1
    product (a single rounding per entry, as s_j lam_c alone) and one
    exponential per block; x_0 is repeated over a chunk's points once per
    call.  The trace reads only the diagonal, so the last vertex's kernel
    scales only that: sum_i C[i, point, i] ker[n, point, i], summed over a
    contiguous (point, dim) array as ``np.trace`` sums its diagonal.  Each
    entry is the same length-dim dot product, each scaling the same product
    and each trace the same sum as the per-point products take; the tests
    hold the result to their bits.
    The variance is each block's sum of |v - block mean|^2, combined
    across blocks by Chan's pairwise update, so it does not cancel when
    the samples barely vary; the mean is the plain sum over samples.
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
    chunk = max(1, _MC_CHUNK_ENTRIES // dim**2)
    # x_0 over one chunk's points, as (row, point, column), and room for x_0 K_0
    x0 = np.repeat(mats[0][:, None, :], min(chunk, block), axis=1)
    x0k0 = np.empty(x0.size, dtype=complex)
    # contiguous (point, dim): its row sums keep np.trace's pairwise order
    diag = np.empty((min(chunk, block), dim), dtype=complex)
    while done < samples:
        m = min(block, samples - done)
        e = rng.exponential(size=(m, n + 1))
        s = e / _row_sums(e)[:, None]
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
