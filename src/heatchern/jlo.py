"""The heat-kernel character, its generating functional, and the pairing.

Everything here is written over ``HeatData`` (H, d, gamma, U), so it
serves a SpectralTriple (H = Q^2, d the graded commutator with Q) and a
SplitTriple (H = (Q1^2 + Q2^2)/2, d = [Q1, .]) alike.  An m x m input is
paired on the lift of the data to C^m (x) C^dim.

The character has components tau_n(a_0..a_n;g) = <a_0, da_1, ..., da_n;g>.
Pairing it with a square root of unity has two routes: the weighted level
series with coefficients (-1/4)^n (2n)!/n!, and the Gaussian transform of
the generating functional J(t;a) = Tr(gamma U(g) a exp(-H + i t da))
evaluated by Gauss-Hermite quadrature.  The quadrature is the reference;
the series is the cross-check.  J is even in t, so each doubling step of
the quadrature takes exponentials at the nodes t >= 0 only, half the
rule, on the gamma-graded parts of H, da and gamma U(g) a.  Of those it
also skips the largest-t nodes whose certified bounds
w_j ||gamma U(g) a||_tr exp(-lambda_min + t_j ||da||) sum to at most
tol 2^-40, counting them as 0 (``pairing_gaussian``);
``generating_functional`` and ``gauss_hermite_transform`` keep every
node.  The exponentials are stacks of at most ``_STACK_ENTRIES`` complex
entries each.  The node rules are computed once per node count, and a
count whose numpy rule is not finite ends the doubling with NoConvergence.
The series has no such failure: the Hoelder bound on <a, da, ..., da>_n
fixes its level before any work, it takes every level from one
exponential, and it reports a proven tail.
``pairing`` validates its input once, fixes the series' level and checks
its block budget before either route takes an exponential, and shares
that work with both routes for the duration of the call (``_Prepared``).

No function here takes a simplex plane: the plane-beta character is that of
the lift ``t.lifted(1, beta)``, a cocycle whose pairing is beta-independent
and whose ``connes_value`` uses the lift's index Tr(gamma U e^{-beta H}).
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cochains import Cochain, op_partial
from .errors import (
    DimensionMismatch,
    NoConvergence,
    Overflow,
    PairingInputInvalid,
    ValidationFailure,
)
from .expectations import (
    _check_block_order,
    expectation_value,
    repeated_expectation_series,
)
from .linalg import as_matrix, expm, opnorm, schatten_norm
from .triples import HeatData, ValidationReport, _check_shape

__all__ = [
    "PairingInput",
    "PairingResult",
    "pairing_coefficient",
    "jlo_component",
    "jlo_cochain",
    "generating_functional",
    "pairing_series",
    "pairing_gaussian",
    "pairing",
    "equivariant_index",
    "coboundary_pairing_residual",
    "involution_from_idempotent",
    "gauss_hermite_transform",
]


# Nodes at which the Gauss-Hermite doubling gives up.
_NODE_CAP = 1024
# Complex entries in one stack of Gauss-Hermite exponentials (1 MiB).
# Unsliced 128-node stacks at dim 48 raised the sweep-quadrature
# benchmark's peak RSS from 97 to 120 MB.  The Taylor core of ``expm``
# holds X, X^2, X^3, X^4 and two partial sums of one stack at once.
_STACK_ENTRIES = 2**16
# Share of ``tol`` that ``pairing_gaussian`` drops at its negligible nodes.
_CUT_SHARE = 2.0**-40
# Highest series level: pairing_coefficient(172) exceeds the float range.
_MAX_LEVEL = 342


def pairing_coefficient(n: int) -> float:
    """Series weight (-1/4)^n (2n)!/n! on the level-2n component.

    The integer ratio (2n)!/n! over 4^n is correctly rounded, and finite
    through n = ``_MAX_LEVEL`` / 2.
    """
    return (-1) ** n * (math.factorial(2 * n) // math.factorial(n)) / 4**n


def involution_from_idempotent(p) -> np.ndarray:
    """The square root of unity a = 2p - I attached to an idempotent p."""
    pm = as_matrix(p, "p")
    return 2.0 * pm - np.eye(pm.shape[0], dtype=complex)


@dataclass
class PairingInput:
    """A candidate a in Mat_m over the algebra with a^2 = I.

    ``a`` is an (m*dim) x (m*dim) matrix; m = 1 is the scalar case.  The
    invariants (square root of unity, gamma-even, group-invariant) are
    checked by ``validate`` against the heat data.
    """

    a: np.ndarray
    m: int = 1
    g: int = 0

    def __post_init__(self):
        self.a = as_matrix(self.a, "a")

    def validate(self, t: HeatData) -> ValidationReport:
        rep = ValidationReport()
        big = self.a.shape[0]
        if big != self.m * t.dim:
            raise DimensionMismatch(
                f"a is {big}x{big}, expected m*dim = {self.m * t.dim}"
            )
        tb = t.lifted(self.m)
        rep.add("a^2 = I", opnorm(self.a @ self.a - np.eye(big)), t.tol)
        rep.add("gamma a gamma = a", opnorm(tb.conj_gamma(self.a) - self.a), t.tol)
        tb.check_invariant(rep, "a", self.a)
        return rep


def _require_valid_input(t: HeatData, inp: PairingInput):
    """Raise unless ``inp`` may be paired on ``t``: a wrong shape first, then
    an ``a`` outside the algebra of the lift (``check_algebra``), then
    every failed check of ``inp.validate``."""
    rep = inp.validate(t)
    t.lifted(inp.m).check_algebra([inp.a])
    rep.require("pairing input fails preconditions", PairingInputInvalid)


class _Prepared:
    """The work the routes of one pairing share: the input validated once,
    the lift with its H, da and the front factor gamma U(g) a, and the
    series' s, x and level.

    ``pairing`` builds one and makes it active for the duration of its
    call; ``pairing_gaussian`` and ``pairing_series`` take the active one
    when it was built on their (t, inp), and build their own otherwise
    (``_prepared``).  So no validation outlives the call that made it.
    """

    def __init__(self, t: HeatData, inp: PairingInput):
        _require_valid_input(t, inp)
        self.t, self.inp = t, inp
        self.lift = t.lifted(inp.m)
        self.h = self.lift.hamiltonian
        self.da = self.lift.derive(inp.a)
        self.front = self.lift.twist(inp.g) @ inp.a
        self._plans = {}

    def series_plan(self, max_level: int, tol: float) -> tuple[int, float, float]:
        """(K, log s, x) of ``pairing_series``: the level 2K is the least
        whose tail is below ``tol``, or ``max_level`` rounded down to even.
        Raises ComplexityCap, before any exponential, when levels 0..2K
        exceed the block budget.
        """
        key = (max_level, tol)
        if key not in self._plans:
            lam, _ = self.lift.heat_data()
            lam_min = float(lam.min())
            log_s = math.log(opnorm(self.inp.a) * float(np.sum(np.exp(lam_min - lam)))) - lam_min
            da_norm = opnorm(self.da)
            try:
                x = da_norm**2 / 4.0
            except OverflowError:
                raise Overflow(
                    f"||da|| = {da_norm:.3e}: the series bound ||da||^2 / 4 overflows"
                ) from None
            top = 0
            while top < max_level // 2 and _tail_after(top, log_s, x) >= tol:
                top += 1
            _check_block_order(2 * top, self.lift.dim)
            self._plans[key] = (top, log_s, x)
        return self._plans[key]


# The prepared pass of the ``pairing`` call in progress, if any.
_ACTIVE: ContextVar[_Prepared | None] = ContextVar("heatchern_pairing", default=None)


def _prepared(t: HeatData, inp: PairingInput) -> _Prepared:
    """The active pass when it was built on this very (t, inp), else a new one."""
    prep = _ACTIVE.get()
    if prep is not None and prep.t is t and prep.inp is inp:
        return prep
    return _Prepared(t, inp)


@dataclass
class PairingResult:
    value: complex
    series_value: complex
    quadrature_value: complex
    truncation_level: int
    tail_bound: float
    connes_value: complex


def _vertices(t: HeatData, mats, check_even: bool = True) -> list[np.ndarray]:
    """The vertices [a_0, da_1, ..., da_n] of tau_n on ``mats``.

    With ``check_even`` every argument is first shape-checked, then
    checked gamma-even (ValidationFailure naming the first that is not).
    """
    if check_even:
        for k, a in enumerate(mats):
            _check_shape(f"tuple[{k}]", a, t.dim)
        for k, a in enumerate(mats):
            if opnorm(t.conj_gamma(a) - a) > t.tol * max(opnorm(a), 1.0):
                raise ValidationFailure(f"argument {k} is not gamma-even")
    return [mats[0]] + [t.derive(a) for a in mats[1:]]


def jlo_component(
    t: HeatData,
    n: int,
    a_list,
    g: int = 0,
    check_even: bool = True,
) -> complex:
    """tau_n(a_0..a_n;g) = <a_0, da_1, ..., da_n; g>."""
    mats = [m.matrix if hasattr(m, "matrix") else as_matrix(m) for m in a_list]
    if len(mats) != n + 1:
        raise DimensionMismatch(f"level {n} needs {n + 1} elements, got {len(mats)}")
    return expectation_value(t, _vertices(t, mats, check_even), g)


def jlo_cochain(t: HeatData, max_level: int = 32) -> Cochain:
    """The character packaged as an even class-C cochain."""

    def ev(n, mats, g):
        return jlo_component(t, n, mats, g, check_even=False)

    return Cochain(ev, t.group, max_level, "C")


def _integrand(tb: HeatData, inp: PairingInput):
    """Nodes t -> the vector of Tr(gamma U(g) a exp(-H + i t da)) on the lift ``tb``.

    H is the lift's ``hamiltonian``.  This is J as given, at every node;
    ``pairing_gaussian`` folds ``_graded_integrand`` instead.
    """
    return _stacked_traces(tb.hamiltonian, tb.derive(inp.a), tb.twist(inp.g) @ inp.a)


def _graded_parts(prep: _Prepared) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graded parts (H + gamma H gamma)/2, (da - gamma da gamma)/2 and
    (f + gamma f gamma)/2, f = gamma U(g) a, of the prepared pairing."""
    tb, h, da, front = prep.lift, prep.h, prep.da, prep.front
    return (
        (h + tb.conj_gamma(h)) / 2.0,
        (da - tb.conj_gamma(da)) / 2.0,
        (front + tb.conj_gamma(front)) / 2.0,
    )


def _graded_integrand(prep: _Prepared):
    """``_integrand`` on the graded parts (``_graded_parts``).

    Its values at t and -t agree to rounding, whatever grading residuals
    validation let through.
    """
    return _stacked_traces(*_graded_parts(prep))


def _node_bounds(h: np.ndarray, da: np.ndarray, front: np.ndarray):
    """(t, w, centre) -> bounds on the weighted folded values of Tr(front exp(-h + i t da)).

    For nodes t >= 0 and weights w of a folded rule, entry j bounds
    m_j w_j |J(t_j)| / sqrt(pi), where m_j counts t_j and its mirror -t_j
    (1 for the centre of an odd rule, flagged by ``centre``).  Since
    |Tr(F E)| <= ||F||_tr ||E|| and the log-norm bound gives
    ||exp(A)|| <= exp(lambda_max((A + A*)/2)), with A = -h + i t da,
    |J(t)| <= ||front||_tr exp(-lambda_min + |t| ||da||), lambda_min the
    least eigenvalue of (h + h*)/2.  This holds for any front and da,
    Hermitian or not, and for an h that is positive only up to rounding.
    Taken in logarithms: a weight that underflowed to 0 gives 0, a bound
    past the float range gives inf.
    """
    lam_min = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])
    trace_norm = schatten_norm(front, 1)
    rate = opnorm(da)
    with np.errstate(divide="ignore"):  # a zero front: every bound is 0
        shift = float(np.log(trace_norm / math.sqrt(math.pi))) - lam_min

    def bounds(ts: np.ndarray, ws: np.ndarray, centre: bool) -> np.ndarray:
        mult = np.full(ts.size, 2.0)
        mult[: int(centre)] = 1.0
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(np.log(mult * ws) + shift + rate * ts)

    return bounds


def _stacked_traces(h: np.ndarray, da: np.ndarray, front: np.ndarray):
    """Nodes t -> the vector of Tr(front exp(-h + i t da)).

    The exponentials are taken as stacks of at most ``_STACK_ENTRIES``
    complex entries, a bound fixed before any stack is built.
    """
    per_stack = max(1, _STACK_ENTRIES // h.size)

    def values(ts):
        ts = np.asarray(ts)
        out = np.empty(ts.size, dtype=complex)
        for i in range(0, ts.size, per_stack):
            tt = ts[i : i + per_stack, None, None]
            e = expm(-h + 1j * tt * da)
            out[i : i + per_stack] = np.trace(front @ e, axis1=1, axis2=2)
        return out

    return values


def generating_functional(t: HeatData, inp: PairingInput, z: complex) -> complex:
    """J(z;a) = Tr(gamma U(g) a exp(-H + i z da)), block-traced for m > 1."""
    _require_valid_input(t, inp)
    tb = t.lifted(inp.m)
    return complex(_integrand(tb, inp)([z])[0])


@lru_cache(maxsize=32)
def _hermite_rule(nodes: int):
    """numpy's Gauss-Hermite nodes and weights, or None where they are not finite.

    numpy 2.4 returns NaN weights from about 400 nodes and NaN nodes at 1024.
    """
    with np.errstate(all="ignore"):
        ts, ws = np.polynomial.hermite.hermgauss(nodes)
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ws))):
        return None
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _check_tol(tol: float):
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _check_quadrature(quad_nodes: int, tol: float):
    """Raise ValueError for a ``tol`` that is not positive and finite or a
    first node count outside [20, ``_NODE_CAP``]."""
    _check_tol(tol)
    if quad_nodes < 20:
        raise ValueError("quad_nodes must be at least 20")
    if quad_nodes > _NODE_CAP:
        raise ValueError(f"quad_nodes {quad_nodes} exceeds node_cap {_NODE_CAP}")


def _gauss_hermite(values, quad_nodes: int = 64, tol: float = 1e-10) -> complex:
    """(1/sqrt(pi)) sum_j w_j f(t_j), doubling the nodes until two sums agree to ``tol``.

    ``values`` maps the vector of nodes t_j to the values f(t_j).  Raises
    NoConvergence when the doubling passes ``_NODE_CAP`` or reaches a node
    count whose rule is not finite, and ValueError through ``_check_quadrature``.
    """
    _check_quadrature(quad_nodes, tol)
    prev = None
    nodes = quad_nodes
    while nodes <= _NODE_CAP:
        rule = _hermite_rule(nodes)
        if rule is None:
            raise NoConvergence(
                f"Gauss-Hermite transform did not stabilize below {tol}: "
                f"the {nodes}-node rule is not finite"
            )
        ts, ws = rule
        val = sum(w * v for w, v in zip(ws, values(ts))) / math.sqrt(math.pi)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        nodes *= 2
    raise NoConvergence(
        f"Gauss-Hermite transform did not stabilize below {tol} within {_NODE_CAP} nodes"
    )


def gauss_hermite_transform(f, quad_nodes: int = 64, tol: float = 1e-10) -> complex:
    """(1/sqrt(pi)) integral of e^{-t^2} f(t), with node doubling to ``tol``.

    ``f`` takes one node at a time, at every node of the rule: f need
    not be even, so its odd part cancels.  Raises NoConvergence if successive
    doublings never stabilize below ``tol`` before the cap.
    """
    return _gauss_hermite(lambda ts: [f(tt) for tt in ts], quad_nodes, tol)


def pairing_gaussian(
    t: HeatData,
    inp: PairingInput,
    quad_nodes: int = 64,
    tol: float = 1e-10,
) -> complex:
    """Gaussian transform of the generating functional at the origin.

    J is even: a and U(g) are gamma-even and d a is gamma-odd, so
    gamma (-H + i t da) gamma = -H - i t da and moving gamma around the
    trace gives J(-t) = J(t).  The Gauss-Hermite rules are symmetric
    (t_j = -t_{n-1-j}), so only the nodes t >= 0 get an exponential and
    their values are mirrored onto the rest; an odd rule's t = 0 is
    evaluated once.  The sum runs over the same sequence in the same order
    as on the full rule.  Inputs pass validation with residuals up to
    ``tol``, so the fold runs on the graded parts (``_graded_parts``),
    taken once per call.  They keep J even to rounding, and they move the
    value by O(residual^2), since the full rule cancels every first-order
    odd term.

    Each pass also drops the largest-t nodes whose contribution is
    negligible: |w_j J(t_j)| <= w_j ||gamma U(g) a||_tr
    exp(-lambda_min + t_j ||da||) (``_node_bounds``), and the longest
    suffix of the folded nodes whose bounds, mirrors included, sum to at
    most ``tol`` 2^-40 counts as 0, in the same place of the sum.  So the
    value of a pass moves by at most ``tol`` 2^-40 plus rounding, and the
    nodes of largest t, which carry the most squarings, take no
    exponential.
    """
    values = _folded_values(_prepared(t, inp), tol * _CUT_SHARE)
    return _gauss_hermite(values, quad_nodes, tol)


def _folded_values(prep: _Prepared, limit: float):
    """Nodes t of a Gauss-Hermite rule -> the graded J at each, with
    exponentials at the nodes t >= 0 only, and 0 at the longest suffix of
    them whose ``_node_bounds`` sum to at most ``limit`` (mirrors included).
    """
    h, da, front = _graded_parts(prep)
    graded = _stacked_traces(h, da, front)
    bounds = _node_bounds(h, da, front)

    def values(ts):
        mirrored = ts.size // 2
        folded = ts[mirrored:]
        ws = _hermite_rule(ts.size)[1][mirrored:]  # the rule ``_gauss_hermite`` sums
        # tail[j]: the bounds of node j and every larger one, summed from the largest
        tail = np.cumsum(bounds(folded, ws, ts.size % 2 == 1)[::-1])[::-1]
        kept = int(np.count_nonzero(tail > limit))
        half = np.zeros(folded.size, dtype=complex)
        half[:kept] = graded(folded[:kept])
        return np.concatenate((half[::-1][:mirrored], half))

    return values


def _check_max_level(max_level: int):
    if max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {max_level}")
    if max_level > _MAX_LEVEL:
        raise ValueError(f"max_level {max_level} exceeds {_MAX_LEVEL}")


def pairing_series(
    t: HeatData,
    inp: PairingInput,
    max_level: int = 32,
    tol: float = 1e-12,
) -> tuple[complex, int, float]:
    """The weighted level series, summed to a level chosen before it starts.

    The Hoelder bound |<a, da, ..., da>_n| <= ||a|| ||da||^n Tr(e^{-H}) / n!
    bounds the weighted term at level 2k by s x^k / k!, with
    s = ||a|| Tr(e^{-H}) and x = ||da||^2 / 4.  The series stops at the
    least level 2K whose tail ``_tail_after(K)`` is below ``tol``, or at
    ``max_level`` (rounded down to even), and takes levels 0..2K from one
    exponential.  Returns (value, 2K, tail_bound): the tail bound is that
    tail plus a rounding allowance, ``heat_expectation``'s 1e-13 error
    model applied to s e^x, the bound on the sum of the moduli of the
    terms; so it can sit a little above ``tol``.  Raises ValueError for a negative ``max_level`` or a
    ``tol`` that is not positive and finite, ComplexityCap when
    (2K + 1) dim exceeds the block budget, and Overflow when ||da||^2
    leaves the float range.
    """
    _check_max_level(max_level)
    _check_tol(tol)
    prep = _prepared(t, inp)
    top, log_s, x = prep.series_plan(max_level, tol)
    raw = repeated_expectation_series(prep.lift, inp.a, prep.da, 2 * top, inp.g)
    total = sum(pairing_coefficient(k) * raw[2 * k] for k in range(top + 1))
    return total, 2 * top, _tail_after(top, log_s, x) + 1e-13 * _exp(log_s + x)


def _exp(v: float) -> float:
    """e^v, or inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _tail_after(k: int, log_s: float, x: float) -> float:
    """Bound on sum_{j > k} s x^j / j!, with s = e^{log_s}.

    The ratio of successive terms past j = k + 1 is at most x / (k + 2),
    so the tail is at most s x^{k+1} / (k+1)! (k+2) / (k+2-x) when
    k + 2 > x, and at most s e^x otherwise.  Taken in logarithms, so a
    large x gives inf rather than OverflowError.
    """
    if x == 0.0:
        return 0.0
    if k + 2 <= x:
        return _exp(log_s + x)
    return _exp(
        log_s + (k + 1) * math.log(x) - math.lgamma(k + 2) + math.log((k + 2) / (k + 2 - x))
    )


def equivariant_index(t: HeatData, g: int = 0) -> complex:
    """Tr(gamma U(g) e^{-H}), the a = I value of the pairing."""
    return t.heat_trace(g)


def pairing(
    t: HeatData,
    inp: PairingInput,
    quad_nodes: int = 64,
    max_level: int = 32,
    tol: float = 1e-10,
) -> PairingResult:
    """Both routes to the pairing, with the quadrature as the reference.

    The series runs to a tail below min(``tol``, 1e-12) or to
    ``max_level``, and ``tail_bound`` bounds its distance to the exact
    pairing (``pairing_series``).  ``connes_value`` is the idempotent-form
    average (pairing + index)/2 under a = 2p - I.

    The input is validated once and the series' level fixed, with its
    block budget checked, before either route takes an exponential
    (``_Prepared``).
    """
    _check_max_level(max_level)
    prep = _Prepared(t, inp)
    _check_quadrature(quad_nodes, tol)  # before the series level is read off tol
    series_tol = min(tol, 1e-12)
    prep.series_plan(max_level, series_tol)
    token = _ACTIVE.set(prep)
    try:
        quad = pairing_gaussian(t, inp, quad_nodes=quad_nodes, tol=tol)
        series, trunc, tail = pairing_series(t, inp, max_level=max_level, tol=series_tol)
        index = equivariant_index(prep.lift, inp.g)
    finally:
        _ACTIVE.reset(token)
    return PairingResult(
        value=quad,
        series_value=series,
        quadrature_value=quad,
        truncation_level=trunc,
        tail_bound=tail,
        connes_value=(quad + index) / 2.0,
    )


def coboundary_pairing_residual(
    t: HeatData,
    cochain: Cochain,
    inp: PairingInput,
    max_level: int = 10,
) -> float:
    """|series pairing of (b + B) applied to the cochain| with a scalar input.

    For m > 1 the block sum over matrix entries is carried out literally,
    which costs m^{2n+1} evaluations per level; keep m small.
    """
    _require_valid_input(t, inp)
    pf = op_partial(cochain)
    d = t.dim
    total = 0.0 + 0.0j
    for k in range(0, max_level // 2 + 1):
        n = 2 * k
        if n > pf.max_level:
            break
        coeff = pairing_coefficient(k)
        blocks = [
            [inp.a[i * d : (i + 1) * d, j * d : (j + 1) * d] for j in range(inp.m)]
            for i in range(inp.m)
        ]
        # idx[0] varies fastest; the summation order fixes the rounding
        for rev in itertools.product(range(inp.m), repeat=n + 1):
            idx = rev[::-1]
            mats = tuple(
                blocks[idx[j]][idx[(j + 1) % (n + 1)]] for j in range(n + 1)
            )
            total += coeff * pf(n, mats, inp.g)
    return abs(total)
