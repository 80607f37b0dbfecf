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
blocks and x_1..x_n on the superdiagonal (Van Loan, IEEE TAC 23, 1978);
block (0, k) gives level k with the first k vertices, so one exponential
yields every level at once.  M is built in the eigenbasis of H and conditioned twice:

- shift: the diagonal is -(lambda - lambda_min), and the result is
  multiplied back by e^{-lambda_min}, so small expectations keep their
  relative accuracy;
- balance: the superdiagonal is c x_j and block k is divided by c^k,
  with c = max(1, n / (e max_j ||x_j||)).  Without it the deep blocks,
  of size ||x||^k / k!, carry only the absolute accuracy of the largest
  block.

The cost is one exponential of order (n+1) dim; ``MAX_BLOCK_ORDER`` bounds
it before anything is allocated.  For the levels <x0, x, ..., x>_n of
``repeated_expectation_series`` no block matrix is formed: by Duhamel they
are the Taylor coefficients of F(z) = Tr(gamma U(g) x0 e^{-H + z x}), with
the Hoelder bound |<x0, x, ..., x>_n| <= ||x0|| ||x||^n Tr(e^{-H}) / n!, and
``linalg.cauchy_circles`` plans circles that read them off samples of F,
one FFT per circle.  The samples come from ``linalg.exp_traces``, the
pairing's sampler, with one shift per circle.  ``MAX_SAMPLES`` bounds them
before any exponential.  The bidiagonal exponential of each level alone is
their reference.
A seeded Monte-Carlo quadrature over the simplex provides an independent
route at every instance: per block of simplex points it stacks the
products x_0 e^{-s_0 H} ... x_j e^{-s_j H} as one (points*dim, dim)
matrix, so each vertex costs one GEMM and one column scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, ComplexityCap, DimensionMismatch
from .linalg import (
    as_matrix,
    cauchy_circles,
    circle_levels,
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


def _front_and_rest(t, mats: list[np.ndarray], g: int):
    if not mats:
        raise DimensionMismatch("need at least one vertex")
    for k, m in enumerate(mats):
        _check_shape(f"vertex[{k}]", m, t.dim)
    return t.twist(g) @ mats[0], list(mats[1:])


def _check_block_order(n: int, dim: int):
    """Raise ComplexityCap when levels 0..n at ``dim`` need one exponential
    of block order (n+1) dim above ``MAX_BLOCK_ORDER``.

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


def _bidiagonal_row(d: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    """First block row of exp(M): diag(d) on the diagonal blocks, xs on the superdiagonal."""
    dim = d.size
    order = (len(xs) + 1) * dim
    m = np.zeros((order, order), dtype=complex)
    m[np.diag_indices(order)] = np.tile(d, len(xs) + 1)
    for k, x in enumerate(xs):
        m[k * dim : (k + 1) * dim, (k + 1) * dim : (k + 2) * dim] = x
    return expm(m, norm_cap=np.inf)[:dim]


def _balance(n: int, xs) -> float:
    """c = max(1, n / (e max_j ||x_j||)), 1 when every x_j is 0.

    The largest column 2-norm is a lower bound on ||x_j||: when its square
    passes (n / e)^2 by more than its rounding, c is 1 exactly and no SVD
    runs.
    """
    top_column = max((float((np.abs(x) ** 2).sum(axis=0).max()) for x in xs), default=0.0)
    if top_column >= (n / math.e) ** 2 * (1.0 + 1e-8):
        return 1.0
    x_norm = max((opnorm(x) for x in xs), default=0.0)
    return max(1.0, n / (math.e * x_norm)) if x_norm > 0 else 1.0


def _simplex_levels(t, front, rest) -> tuple[np.ndarray, np.ndarray]:
    """<front-vertex, rest_1, ..., rest_k> for every k = 0..n, in one exponential.

    ``front`` already carries the grading and group factors.  Returns the
    values and, per level, the sum of the moduli of the summands of the
    final trace, which scales the kernel's rounding error.
    """
    lam, basis = t.heat_data()
    dim = lam.size
    n = len(rest)
    _check_block_order(n, dim)
    vh = basis.conj().T
    # keyed by identity and converted once each: a vertex may recur
    eig = {key: vh @ x @ basis for key, x in {id(x): x for x in rest}.items()}
    c = _balance(n, eig.values())
    lam_min = float(lam.min())
    sup = {key: c * x for key, x in eig.items()}
    row = _bidiagonal_row(-(lam - lam_min), [sup[id(x)] for x in rest])
    row = row.reshape(dim, n + 1, dim)
    fe = vh @ front @ basis
    scale = np.exp(-lam_min - np.arange(n + 1) * math.log(c))
    vals = scale * np.einsum("ij,jki->k", fe, row)
    mags = scale * np.einsum("ij,jki->k", np.abs(fe), np.abs(row))
    return vals, mags


def _monte_carlo(t, front, rest, samples: int, seed: int) -> tuple[complex, float]:
    """Monte-Carlo over the simplex; error is three standard errors.

    Simplex points are normalized i.i.d. exponentials (uniform on the
    unit simplex).  They are drawn in blocks of at most 4096 points, and
    of at most ``MAX_BLOCK_ORDER``^2 // dim^2, so that each (points, dim,
    dim) array holds no more entries than one budgeted block matrix.
    In the eigenbasis of H each e^{-s_j H} scales columns, and every point
    shares the vertex x_j: so each vertex step is one GEMM of the
    (points*dim, dim) stack by x_j, then the in-place column scaling.
    Each entry is the length-dim dot product a per-point product takes;
    the tests hold the result to the bits of the per-point products.
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
    while done < samples:
        m = min(block, samples - done)
        e = rng.exponential(size=(m, n + 1))
        s = e / e.sum(axis=1, keepdims=True)
        ker = np.exp(-s[:, :, None] * lam[None, None, :])
        cur = mats[0][None, :, :] * ker[:, 0, :][:, None, :]
        for j in range(1, n + 1):
            cur = (cur.reshape(m * dim, dim) @ mats[j]).reshape(m, dim, dim)
            cur *= ker[:, j, :][:, None, :]
        vals = np.trace(cur, axis1=1, axis2=2)
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
    mats = [as_matrix(m) for m in mats]
    front, rest = _front_and_rest(t, mats, g)
    vals, _ = _simplex_levels(t, front, rest)
    return complex(vals[-1])


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
    zs = np.concatenate([c.nodes() for c in circles])
    lam_min = float(lam.min())
    values = exp_traces(vh @ front @ basis, np.diag(lam_min - lam), xe, zs, shifts)
    log_weights = np.full(max_n + 1, -lam_min)
    for c in circles:
        log_weights[c.lo : c.hi + 1] += c.spread
    return [complex(v) for v in circle_levels(values, circles, log_weights)]


def _vertex_list(x) -> list[np.ndarray]:
    """The vertices of a VertexSet, or of a plain list of matrices."""
    return (x if isinstance(x, VertexSet) else VertexSet(list(x))).vertices


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
    Monte-Carlo simplex quadrature; the quadrature raises ValueError for
    ``samples`` < 1, which has no mean.
    """
    front, rest = _front_and_rest(t, _vertex_list(x), g)
    if method == "exact":
        vals, mags = _simplex_levels(t, front, rest)
        val, err = complex(vals[-1]), 1e-13 * float(mags[-1])
    elif method == "quadrature":
        if samples < 1:
            raise ValueError(f"Monte Carlo needs samples >= 1, got {samples}")
        val, err = _monte_carlo(t, front, rest, samples, seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ExpectationValue(value=val, method=method, estimated_error=err)


def check_insert_identity(t: SpectralTriple, x, g: int = 0) -> float:
    """|<x_0..x_n> - sum_j <x_0..x_{j-1}, I, x_j..x_n>| over inserts j=1..n+1."""
    verts = _vertex_list(x)
    ident = np.eye(t.dim, dtype=complex)
    rhs = 0.0 + 0.0j
    for j in range(1, len(verts) + 1):
        rhs += expectation_value(t, verts[:j] + [ident] + verts[j:], g)
    return abs(expectation_value(t, verts, g) - rhs)


def check_cyclic(t: SpectralTriple, x, g: int = 0) -> float:
    """|<x_0..x_n> - <gamma U(g)* x_n U(g) gamma, x_0..x_{n-1}>|."""
    verts = _vertex_list(x)
    rotated = t.conj_gamma(t.conj_group_inv(verts[-1], g))
    return abs(expectation_value(t, verts, g) - expectation_value(t, [rotated] + verts[:-1], g))


def check_d_invariance(t: SpectralTriple, x, g: int = 0) -> float:
    """|sum_j <x_0^gamma,..,x_{j-1}^gamma, dx_j, x_{j+1},..,x_n>|."""
    verts = _vertex_list(x)
    tot = 0.0 + 0.0j
    for j in range(len(verts)):
        mats = [t.conj_gamma(v) for v in verts[:j]] + [derivative(t, verts[j])] + verts[j + 1 :]
        tot += expectation_value(t, mats, g)
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
