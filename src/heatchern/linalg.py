"""Dense complex linear-algebra kernels.

Everything downstream (simplex transforms, pairings, sweeps) reduces to the
operations here: Hermitian eigendecomposition, a general matrix
exponential, Schatten norms, divided differences of the exponential
evaluated through the exponential of an upper-bidiagonal matrix, and Taylor
coefficients read off samples on circles.  The exponential scales its
argument to 1-norm at most 0.5, evaluates the degree-18 Taylor polynomial
there by Paterson-Stockmeyer (7 matrix products) and squares back.  It has
one path, for a stack of matrices, shape (k, n, n), with a scaling per
slice; one matrix is a stack of one, so each slice gets the bits a call on
that slice alone gets.  A 1-norm past 2^1022, whose scaling 2^s leaves the
float range, raises Overflow before any arithmetic.
``exp_traces`` samples Tr(F e^{B + zX}) through such stacks: it is the one
sampler of the Gauss-Hermite nodes of a pairing and the circle samples of
its series, both in one call, and of the levels of
``repeated_expectation_series``.  All
functions are pure; inputs are never mutated.

The Taylor coefficients f_n of an entire F(z) = sum_n f_n z^n with the
Hoelder bound |f_n| <= S y^n / n! come from samples of F on circles
|z| = r, one FFT per circle: the trapezoidal rule of Cauchy's integral
(Trefethen & Weideman, SIAM Rev. 56, 2014).  On |z| = r, |F| <= S e^{ry},
so rounding in the samples costs level n a factor e^u n! / u^n, u = ry,
over its bound: least near u = n, and Poisson-like in n around u.  So one
circle serves a band of levels, and the levels split into bands with one
radius each (Bornemann, Found. Comput. Math. 11, 2011).  ``cauchy_circles``
plans the bands, radii and point counts from the bound alone, before any
sample is taken, and each of its circles carries the plan's step (2 for an
even F read in w = z^2); the nodes, ``circle_levels``, which reads the
coefficients off the samples, and ``circle_errors``, which bounds their
rounding and aliasing, take it from the circles.

Residual checks ||x|| <= tol need no SVD when ``norm_certified`` decides
them: ||x||_2 <= ||x||_F, so ||x||_F <= tol/2 proves the check.  The
factor 1/2 absorbs the O(n eps) rounding of the Frobenius sum and of the
SVD itself, so a certified check is one the SVD passes too, rank-1
residuals (where the two norms are equal) included.  ``opnorm`` is the
exact fallback, and the value wherever a norm is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, DimensionMismatch, NotHermitian, Overflow

__all__ = [
    "Circle",
    "HermitianEigenSystem",
    "as_matrix",
    "cauchy_circles",
    "circle_errors",
    "circle_levels",
    "circle_nodes",
    "eig_hermitian",
    "exp_traces",
    "expm",
    "norm_certified",
    "opnorm",
    "simplex_exp",
    "schatten_norm",
]

_TAYLOR_THETA = 0.5  # scale target for the Taylor core
_TAYLOR_TERMS = 18  # 0.5^18/18! ~ 6e-22, far below double rounding
_TAYLOR_COEFFS = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_TERMS + 1))
# Most squarings: 2^1023 is the largest power of 2 in the float range.
_MAX_SQUARINGS = 1023
# Least tol/2 whose square, 2^-800, lies far above the subnormal range.
_FRO_SAFE = 2.0**-400
# Complex entries in one stack of exponentials (1 MiB).  Unsliced 128-node
# stacks at dim 48 raised the sweep-quadrature benchmark's peak RSS from 97
# to 120 MB.  The Taylor core of ``expm`` holds X, X^2, X^3, X^4 and two
# partial sums of one stack at once.
_STACK_ENTRIES = 2**16
# A circle may cost a level at most this factor over the larger of two
# floors: the least rounding any one circle gives that level, and that of
# the most heavily weighted level.
_CIRCLE_LOSS = 10.0
# The Hoelder mass of the levels aliased into a level, over that level's
# rounding term: below double rounding.
_ALIAS_MASS = 2.0**-53


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array and check finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def opnorm(m) -> float:
    """Operator (spectral) norm: the largest singular value.

    The same LAPACK call as ``np.linalg.norm(m, 2)``, with the same bits,
    without its dispatch.  A matrix with a non-finite entry has norm inf,
    and LAPACK never sees it: an SVD of inf entries writes an error line
    to the process's stderr, and one of NaN entries does not converge.
    """
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        return math.inf
    return float(np.linalg.svd(a, compute_uv=False)[0])


def norm_certified(x, tol: float) -> bool:
    """True when ||x||_F <= tol/2, which proves opnorm(x) <= tol without an SVD.

    False means only that this bound cannot decide; the caller then
    compares ``opnorm``.  The sum of squares is one BLAS dot: a square
    that overflows makes it inf, which certifies nothing, and squares that
    underflow lose far less than (tol/2)^2 times the rounding as long as
    tol/2 >= ``_FRO_SAFE``.  A smaller or NaN tol is never certified.
    """
    half = tol / 2
    if not half >= _FRO_SAFE:
        return False
    squares = float(np.vdot(x, x).real)
    return squares <= half * half and math.isfinite(squares)


@dataclass
class HermitianEigenSystem:
    """Ascending eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(m, tol: float = 1e-10) -> HermitianEigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the relative asymmetry exceeds ``tol``, the
    largest entry of |a - a*| against tol ||a||; the message reports the
    worst offending entry and that bound.  Since ||a|| >= max |a_ij|, an
    asymmetry at most tol max |a_ij| / 2 passes without the SVD of ||a||;
    the factor 1/2 absorbs the SVD's rounding, so the test decides as the
    exact comparison does.
    """
    a = as_matrix(m)
    dev = np.abs(a - a.conj().T)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    with np.errstate(over="ignore"):
        top = float(np.abs(a).max())
    if not (math.isfinite(top) and dev[i, j] <= 0.5 * tol * top):
        scale = max(opnorm(a), 1e-300)
        if dev[i, j] > tol * scale:
            raise NotHermitian(
                f"entry ({i},{j}) deviates from Hermitian symmetry by "
                f"{dev[i, j]:.3e} (tolerance {tol * scale:.3e})"
            )
    w, v = np.linalg.eigh(a)
    return HermitianEigenSystem(eigenvalues=w, eigenvectors=v)


def expm(m, norm_cap: float = 1e3) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    ``m`` is one square matrix or a stack of them, shape (k, n, n); one
    matrix is taken as a stack of one and returned as a matrix.  Each slice
    is scaled by its own 2^-s to 1-norm at most 0.5, the degree-18 Taylor
    polynomial is evaluated there (``_taylor``) and squared s times, so a
    slice of a stack equals bit for bit the exponential of that slice alone.
    The zero matrix takes s = 0 and gets exactly I.  Accurate to ~1e-13
    relative for inputs of 1-norm up to a few tens.  Raises Overflow, before
    any arithmetic, when a 1-norm exceeds ``norm_cap``, or passes 2^1022
    whatever the cap: its scaling 2^s then leaves the float range, and
    scaling by 2^-s = 0 would take the exponential as I.  A stack raises
    when any one slice does.
    """
    a = np.asarray(m, dtype=complex)
    single = a.ndim != 3
    if single:
        a = as_matrix(a)[None]
    elif a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"matrix stack must be (k, n, n), got shape {a.shape}")
    elif not np.isfinite(a).all():
        raise ValueError("matrix stack contains non-finite entries")
    # an overflowing 1-norm is inf, and log2(0) = -inf gives s = 0
    with np.errstate(over="ignore", divide="ignore"):
        nrm = np.linalg.norm(a, 1, axis=(1, 2))
        s = np.maximum(0.0, np.ceil(np.log2(nrm / _TAYLOR_THETA)))
    # the checks and the squaring counts on Python floats: a reduction of a
    # short array costs more than its list
    worst = max(nrm.tolist(), default=0.0)
    if worst > norm_cap:
        raise Overflow(f"matrix 1-norm {worst:.3e} exceeds cap {norm_cap:.3e}")
    counts = s.tolist()
    most = max(counts, default=0.0)
    if not most <= _MAX_SQUARINGS:
        raise Overflow(f"matrix 1-norm {worst:.3e}: its scaling 2^s leaves the float range")
    out = _taylor(a / (2.0**s)[:, None, None])
    most, least = int(most), int(min(counts, default=most))
    # every slice takes the least count of squarings at once (the samples
    # of one circle mostly share their scaling); only the rest are masked
    for _ in range(least):
        out = out @ out
    for j in range(least, most):
        live = s > j
        sq = out[live]
        out[live] = sq @ sq
    return out[0] if single else out


def _taylor(x: np.ndarray) -> np.ndarray:
    """The degree-18 Taylor polynomial of exp at x, or at each slice of a stack x.

    Paterson-Stockmeyer: with X^2, X^3 and X^4 formed, the polynomial is
    B_0 + X^4 (B_1 + X^4 (B_2 + X^4 (B_3 + X^4 B_4))), where B_j is the
    cubic sum_{i<4} X^i / (4j+i)! (B_4 stops at X^2).  That is 7 matrix
    products against Horner's 17.  The products act slice by slice and
    every other step is elementwise, so a slice of a stack gets the bits
    of a call on that slice alone.  c_0 is added to each slice's diagonal
    through a strided view of the flattened slices.
    """
    n = x.shape[-1]
    x2 = x @ x
    powers = (x, x2, x2 @ x)
    x4 = x2 @ x2
    out = None
    for j in range(_TAYLOR_TERMS // 4, -1, -1):
        c = _TAYLOR_COEFFS[4 * j : 4 * j + 4]
        block = np.multiply(c[1], x, order="C")  # so the diagonal view writes into it
        for ci, p in zip(c[2:], powers[1:]):
            block += ci * p
        if out is not None:
            block += x4 @ out
        block.reshape(x.shape[:-2] + (n * n,))[..., :: n + 1] += c[0]
        out = block
    return out


@dataclass(frozen=True)
class Circle:
    """One circle of a Cauchy rule: ``points`` samples of F on |z| = ``radius``
    give the Taylor coefficients ``lo``..``hi`` of G(w) = F(w^{1/step}).

    ``spread`` = radius y is the exponent of the bound S e^{spread} on |F|
    there, y the growth rate of the Hoelder bound.  ``step`` is that of the
    plan, set by ``cauchy_circles``: the nodes, ``circle_levels`` and
    ``circle_errors`` read it here.
    """

    lo: int
    hi: int
    radius: float
    spread: float
    points: int
    step: int

    def nodes(self) -> np.ndarray:
        """The samples' z = radius e^{2 pi i j / (step points)}, j < points:
        the points-th roots of unity in w = z^step, scaled to the circle."""
        n = self.points
        return self.radius * np.exp(2j * np.pi * np.arange(n) / (self.step * n))


def circle_nodes(circles) -> np.ndarray:
    """The samples z of a plan: the nodes of each of its circles, in order,
    as ``circle_levels`` and ``circle_errors`` read them."""
    return np.concatenate([c.nodes() for c in circles])


def _log_aliased(u: float, above: int, below: int) -> float:
    """log of a bound on the Poisson(u) mass at n >= ``above`` plus that at
    n <= ``below`` (none when ``below`` < 0).

    Past the mode the pmf ratios are at most u / (above + 1), and below it
    at most below / u, so each tail is at most its end term times a
    geometric sum.  A tail that reaches the mode is bounded by 1.
    """
    if u == 0.0:
        return -math.inf
    log_u = math.log(u)

    def log_pmf(m):
        return -u + m * log_u - math.lgamma(m + 1)

    up = (log_pmf(above) + math.log((above + 1) / (above + 1 - u))) if above + 1 > u else 0.0
    if below < 0:
        return up
    down = (log_pmf(below) + math.log(u / (u - below))) if below < u else 0.0
    top = max(up, down)
    return top + math.log1p(math.exp(min(up, down) - top))


def cauchy_circles(norm: float, log_weights, step: int = 1) -> list[Circle]:
    """Circles that give the coefficients k = 0..K of G(w) = F(w^{1/step}),
    K = len(log_weights) - 1, where F(z) = sum_n f_n z^n has the Hoelder
    bound |f_n| <= S norm^n / n! and, for step 2, is even.

    Level n = step k on a circle of spread u = r norm carries the rounding
    eps S e^u r^{-n}: e^u n! / u^n times its bound, least at u = n.  Level
    k weighs e^{log_weights[k]} (relative weights of the bounds: the
    terms of a weighted sum, or zeros for levels wanted each to its own
    accuracy).  A circle may cost each of its levels at most
    ``_CIRCLE_LOSS`` times the larger of two floors: the least weighted
    rounding any circle gives that level, and the weight of the heaviest
    level.  The levels split greedily, from 0 up, into contiguous bands
    that meet this: each band takes all the levels left when they fit, else
    grows one level at a time.  A band's spread balances its two end
    levels, where the weighted loss, convex in the level, peaks; every
    level of the band is checked at it.  Each circle takes the fewest
    points, at least its band's width, that keep the Hoelder mass of the
    levels aliased into its band, k + points and k - points, below
    ``_ALIAS_MASS`` times the rounding term.

    Plain arithmetic on the bound: no sample is taken.  With ``norm`` 0 or
    K = 0 only level 0 can be nonzero, and one sample at z = 0 gives it.
    Every circle carries ``step``.
    """
    top = len(log_weights) - 1
    if norm == 0.0 or top == 0:
        return [Circle(0, 0, 0.0, 0.0, 1, step)]
    # plain floats: a pairing's plan has a few dozen levels, where numpy's
    # per-call overhead would outweigh the arithmetic
    n = [step * k for k in range(top + 1)]
    lg = [math.lgamma(v + 1) for v in n]
    heaviest = max(log_weights)
    slack = []
    for v, g, w in zip(n, lg, log_weights):
        ell = w - heaviest
        least = v - v * math.log(v) + g if v else 0.0
        slack.append(ell - math.log(_CIRCLE_LOSS) - max(0.0, least + ell))

    def spread(lo: int, hi: int) -> float:
        if lo == hi:
            return float(n[lo])
        log_u = (lg[hi] - lg[lo] + slack[hi] - slack[lo]) / (n[hi] - n[lo])
        return min(max(math.exp(min(log_u, math.log(n[hi]))), n[lo]), n[hi])

    def fits(lo: int, hi: int) -> bool:
        u = spread(lo, hi)
        log_u = math.log(u)
        return all(u - n[k] * log_u + lg[k] + slack[k] <= 0.0 for k in range(lo, hi + 1))

    circles, lo = [], 0
    while lo <= top:
        hi = top if fits(lo, top) else lo
        while hi < top and fits(lo, hi + 1):
            hi += 1
        u = spread(lo, hi)
        points = hi - lo + 1
        while _log_aliased(u, step * (lo + points), step * (hi - points)) > math.log(_ALIAS_MASS):
            points += 1
        circles.append(Circle(lo, hi, u / norm, u, points, step))
        lo = hi + 1
    return circles


def circle_levels(values, circles, log_weights) -> np.ndarray:
    """Coefficients k = 0..len(log_weights)-1 of G, each times
    e^{log_weights[k]}, from ``values``, the samples of F at the nodes of
    ``circles`` in order: one FFT per circle, whose own ``step`` fixes the
    factor r^{-step k}.

    The factor and r^{-n} are applied in logarithms, so a coefficient in the
    float range comes out even where r^{-n} alone is not.  Coefficients no
    circle serves are 0.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    out = np.zeros(log_weights.size, dtype=complex)
    start = 0
    for c in circles:
        spectrum = np.fft.fft(values[start : start + c.points]) / c.points
        start += c.points
        k = np.arange(c.lo, c.hi + 1)
        log_r = math.log(c.radius) if c.hi else 0.0
        with np.errstate(divide="ignore"):  # a zero coefficient stays 0
            log_k = np.log(spectrum[k % c.points]) + log_weights[k] - c.step * k * log_r
            out[k] = np.exp(log_k)
    return out


def circle_errors(circles, rounding: float) -> list[float]:
    """Per coefficient lo..hi of each circle, in order: the log of a bound on
    its error over S, when each sample errs by at most ``rounding`` times
    the bound S e^u on |F|.

    Both the rounding and the coefficients aliased into level n = step k,
    with the circle's own ``step``, reach it through the factor e^u r^{-n}.
    The aliased ones weigh the Poisson(u) mass at and beyond step (k +
    points) and at and below step (k - points): at most ``_ALIAS_MASS``,
    which ``cauchy_circles`` checks at the band's end levels, where both
    tails are largest.
    """
    log_error = math.log(rounding + _ALIAS_MASS)
    out = []
    for c in circles:
        log_r = math.log(c.radius) if c.hi else 0.0
        out += [c.spread - c.step * k * log_r + log_error for k in range(c.lo, c.hi + 1)]
    return out


def _per_stack(entries: int) -> int:
    """How many matrices of ``entries`` entries one stack of exponentials
    takes: as many as ``_STACK_ENTRIES`` holds, and at least one."""
    return max(1, _STACK_ENTRIES // entries)


def exp_traces(front, base, x, zs, shifts=None) -> np.ndarray:
    """Tr(front exp(base + z x - shift I)) for each sample z, with its shift
    when ``shifts`` is given.

    The one sampler of the functional Tr(F e^{B + zX}): the pairing's
    quadrature nodes (z = i t) and its series' circle samples, taken in
    one call by ``jlo.pairing``, and the shifted circles of
    ``repeated_expectation_series``.  The exponentials
    are taken as stacks of at most ``_STACK_ENTRIES`` complex entries, a
    bound fixed before any stack is built.  They take no 1-norm cap: the
    callers' plans fix the samples, and at the quadrature's largest nodes
    the 1-norm may pass ``expm``'s default cap while the exponential stays
    in range (1104 and about e^592 at the last node of the exchange triple
    with ||Q|| = 16).  ``expm`` raises Overflow for a 1-norm past 2^1022.
    """
    per_stack = _per_stack(base.size)
    out = np.empty(zs.size, dtype=complex)
    for i in range(0, zs.size, per_stack):
        m = base + zs[i : i + per_stack, None, None] * x
        if shifts is not None:
            m -= shifts[i : i + per_stack, None, None] * np.eye(base.shape[0])
        out[i : i + per_stack] = np.trace(front @ expm(m, norm_cap=np.inf), axis1=1, axis2=2)
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
