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
the series is the cross-check.  One bound fixes how far both go: the
Hoelder bound s x^k / k! on the weighted level 2k, whose tail after K is
``_tail_after(K)``.  The least K with that tail below ``tol`` is the plan
of the pairing (``_Prepared.level``).  The quadrature takes the (K+1)-node
rule in one pass: it is exact on t^{2k} for k <= K and lies between 0 and
the exact moment beyond, so its error is below the same tail.  The series
sums levels 0..2K, capped at ``max_level``: they are the Taylor
coefficients of J(-iz), read off samples on circles planned from the same
bound (``linalg.cauchy_circles``), one FFT per circle, and it reports the
tail with the circles' rounding and aliasing.  J is even in t, so both
routes sample it on the gamma-graded parts of H, da and gamma U(g) a
(``_Prepared.graded``): the quadrature at z = i t for the nodes t >= 0
only, the series on circles in w = z^2.  Their samples come from
``linalg.exp_traces``, the one sampler of Tr(F e^{B + zX}), which the
levels of ``expectations.repeated_expectation_series`` share.  Each route
runs in three steps: it plans its z's, samples them (``_Prepared.sample``)
and reads its value off the samples.  The two routes therefore share the
bound, the plan K, the graded parts and the sampler; the closed form
Tr(gamma U(g) a) of a plain pairing shares none of them, and the tests
hold both routes to it.  A plan past ``_NODE_CAP`` nodes, or one whose
numpy rule is not finite, raises NoConvergence before any exponential.
``_Prepared`` holds the work both routes share and validates nothing:
validation belongs to the entry point, once per request.  ``pairing``
validates its input once, fixes both plans and checks the series' sample
budget before any exponential, samples both routes' z's in one
``exp_traces`` call, and hands each reader its slice with the plan it
fixed.  A route called alone validates, plans, samples and reads with one
call of its own.  A sweep validates its input once and builds one pass per
point.  A pass is only ever an argument, so none outlives its call.

No function here takes a simplex plane: the plane-beta character is that of
the lift ``t.lifted(1, beta)``, a cocycle whose pairing is beta-independent
and whose ``connes_value`` uses the lift's index Tr(gamma U e^{-beta H}).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cochains import Cochain, _batch_size, _batched, op_partial
from .errors import (
    DimensionMismatch,
    NoConvergence,
    Overflow,
    PairingInputInvalid,
    ValidationFailure,
)
from .expectations import (
    _check_sample_budget,
    _once_per_object,
    expectation_value,
    expectation_values,
)
from .linalg import (
    Circle,
    as_matrix,
    cauchy_circles,
    circle_errors,
    circle_levels,
    circle_nodes,
    exp_traces,
    expm,
    opnorm,
)
from .triples import CheckResult, HeatData, ValidationReport, _check_shape

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
    "gauss_hermite_transform",
]


# Most Gauss-Hermite nodes a pairing plan or a transform's doubling takes.
_NODE_CAP = 1024
# Highest series level: pairing_coefficient(172) exceeds the float range.
_MAX_LEVEL = 342
# Relative error of one sampled trace, against the bound on |J| on its
# circle: ``heat_expectation``'s error model.
_SAMPLE_ROUNDING = 1e-13


def pairing_coefficient(n: int) -> float:
    """Series weight (-1/4)^n (2n)!/n! on the level-2n component.

    The integer ratio (2n)!/n! over 4^n is correctly rounded, and finite
    through n = ``_MAX_LEVEL`` / 2.
    """
    return (-1) ** n * (math.factorial(2 * n) // math.factorial(n)) / 4**n


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

    @np.errstate(over="ignore", invalid="ignore")
    def validate(self, t: HeatData) -> ValidationReport:
        rep = ValidationReport()
        big = self.a.shape[0]
        if big != self.m * t.dim:
            raise DimensionMismatch(
                f"a is {big}x{big}, expected m*dim = {self.m * t.dim}"
            )
        tb = t.lifted(self.m)
        rep.add_norm("a^2 = I", self.a @ self.a - np.eye(big), t.tol)
        rep.add_norm("gamma a gamma = a", tb.conj_gamma(self.a) - self.a, t.tol)
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
    """The work the routes of one pairing share: the lift with its H, da and
    the front factor gamma U(g) a, their graded parts as the operands of
    the sampler (``graded``), the plan of both routes, and the sampler
    itself (``sample``).

    It only prepares: the caller validates (t, inp) first, once per
    request, as ``_prepared`` does for a single pairing and each sweep does
    for its whole grid, and hands the pass on as an argument.  So no
    validation outlives the request that made it, and neither does
    ``a_norm``, ||a||: a sweep takes it once, beside its validation, and a
    pass built without it takes its own.
    """

    def __init__(self, t: HeatData, inp: PairingInput, a_norm: float | None = None):
        self.inp, self.a_norm = inp, a_norm
        self.lift = t.lifted(inp.m)
        self.h = self.lift.hamiltonian
        self.da = self.lift.derive(inp.a)
        self.front = self.lift.twist(inp.g) @ inp.a
        self._levels = {}

    @cached_property
    def bound(self) -> tuple[float, float]:
        """(log s, x) of the Hoelder bound s x^k / k! on the weighted level
        2k, s = ||a|| Tr(e^{-H}) and x = ||da||^2 / 4 on the lift.  Raises
        Overflow when x leaves the float range."""
        lam, _ = self.lift.heat_data()
        lam_min = float(lam.min())
        a_norm = opnorm(self.inp.a) if self.a_norm is None else self.a_norm
        log_s = math.log(a_norm * float(np.sum(np.exp(lam_min - lam)))) - lam_min
        da_norm = opnorm(self.da)
        try:
            return log_s, da_norm**2 / 4.0
        except OverflowError:
            raise Overflow(
                f"||da|| = {da_norm:.3e}: the series bound ||da||^2 / 4 overflows"
            ) from None

    @cached_property
    def graded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operands (f, -h, da) of ``linalg.exp_traces`` for both routes:
        the gamma-graded parts h = (H + gamma H gamma)/2, da = (da - gamma da
        gamma)/2 and f = (F + gamma F gamma)/2 of the lift's H, da and
        F = gamma U(g) a.

        Tr(f exp(-h + i t da)) is even in t to rounding, whatever grading
        residuals validation let through.  Each part is formed from the
        halves, as x/2 +- gamma (x/2) gamma: halving is exact, and the sum
        of halves stays finite where x + gamma x gamma overflows.  Formed
        once per pass, on first use.
        """
        f, h, da = (x / 2.0 for x in (self.front, self.h, self.da))
        conj = self.lift.conj_gamma
        return f + conj(f), -(h + conj(h)), da - conj(da)

    def level(self, tol: float) -> int:
        """The plan of both routes: the least K below ``_NODE_CAP`` whose
        tail ``_tail_after(K)`` is below ``tol``, or ``_NODE_CAP`` if none is.

        The scan resumes at the K of a larger tol already planned: no level
        before that K has its tail below the larger tol, so none has it
        below ``tol`` either, whether or not the tail falls monotonically.
        """
        if tol not in self._levels:
            log_s, x = self.bound
            top = max((k for known, k in self._levels.items() if known > tol), default=0)
            while top < _NODE_CAP and _tail_after(top, log_s, x) >= tol:
                top += 1
            self._levels[tol] = top
        return self._levels[tol]

    def series_plan(self, max_level: int, tol: float) -> tuple[int, list[Circle]]:
        """K of ``pairing_series``, ``level(tol)`` capped at ``max_level`` // 2,
        and the circles that give its levels 0..2K.

        The circles weigh level 2k by its term's bound s x^k / k!
        (``linalg.cauchy_circles``, in w = z^2).  Their points keep the
        levels aliased from past 2K below rounding whatever the cap, since
        they follow ||da||, not K.  Raises ComplexityCap, before any
        exponential, when they exceed the sample budget.
        """
        top = min(self.level(tol), max_level // 2)
        _, x = self.bound
        weights = [k * math.log(x) - math.lgamma(k + 1) if k else 0.0 for k in range(top + 1)]
        circles = cauchy_circles(2.0 * math.sqrt(x), weights, step=2)
        _check_sample_budget(sum(c.points for c in circles), self.lift.dim)
        return top, circles

    def nodes(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """The plan of ``pairing_gaussian``: the (K+1)-node Gauss-Hermite
        rule, K = ``level(tol)``, folded to its samples z = i t at the nodes
        t >= 0 and their weights 2 w_j (w_j at the centre of an odd rule).
        Raises NoConvergence, before any exponential, when that exceeds
        ``_NODE_CAP`` nodes or the rule is not finite.
        """
        nodes = self.level(tol) + 1
        if nodes > _NODE_CAP:
            tail = _tail_after(_NODE_CAP - 1, *self.bound)
            raise NoConvergence(
                f"Gauss-Hermite rule: the tail bound after {_NODE_CAP} nodes, "
                f"{tail:.3e}, is not below tol {tol}"
            )
        rule = _hermite_rule(nodes)
        if rule is None:
            raise NoConvergence(
                f"Gauss-Hermite rule: the {nodes}-node rule that tol {tol} needs is not finite"
            )
        ts, ws = rule
        half = ts.size // 2
        weights = 2.0 * ws[half:]
        if ts.size % 2:
            weights[0] = ws[half]
        return 1j * ts[half:], weights

    def sample(self, *zs: np.ndarray) -> list[np.ndarray]:
        """Tr(f exp(-h + z da)) on the graded parts at each array of z's in
        ``zs``, all in one ``exp_traces`` call: one slice per array.

        A slice of a stack of exponentials has the bits of its own
        exponential (``linalg.expm``), so each slice holds the values a call
        on its array alone gives.
        """
        values = exp_traces(*self.graded, np.concatenate(zs))
        ends = itertools.accumulate(z.size for z in zs)
        return [values[end - z.size : end] for z, end in zip(zs, ends)]


def _prepared(t: HeatData, inp: PairingInput) -> _Prepared:
    """A pass on a freshly validated (t, inp): the one validation of a
    single pairing."""
    _require_valid_input(t, inp)
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
            check = CheckResult.of_norm("gamma-even", t.conj_gamma(a) - a, t.tol, tol_scale=a)
            if not check.passed:
                raise ValidationFailure(f"argument {k} is not gamma-even")
    return [mats[0]] + [t.derive(a) for a in mats[1:]]


def _element(m) -> np.ndarray:
    return m.matrix if hasattr(m, "matrix") else as_matrix(m)


def jlo_component(
    t: HeatData,
    n: int,
    a_list,
    g: int = 0,
    check_even: bool = True,
) -> complex:
    """tau_n(a_0..a_n;g) = <a_0, da_1, ..., da_n; g>."""
    mats = [_element(m) for m in a_list]
    if len(mats) != n + 1:
        raise DimensionMismatch(f"level {n} needs {n + 1} elements, got {len(mats)}")
    return expectation_value(t, _vertices(t, mats, check_even), g)


def jlo_cochain(t: HeatData, max_level: int = 32) -> Cochain:
    """The character packaged as an even class-C cochain.

    A batch of tuples is one ``expectation_values`` call, and an argument
    object that recurs across the batch is differentiated once.
    """

    def many(n, tuples, g):
        d = _once_per_object(lambda a: t.derive(_element(a)))
        return expectation_values(t, [[_element(mats[0])] + [d(a) for a in mats[1:]]
                                      for mats in tuples], g)

    return _batched(many, t.group, max_level, "C")


def generating_functional(t: HeatData, inp: PairingInput, z: complex) -> complex:
    """J(z;a) = Tr(gamma U(g) a exp(-H + i z da)), block-traced for m > 1."""
    prep = _prepared(t, inp)
    return complex(np.trace(prep.front @ expm(-prep.h + 1j * z * prep.da)))


@lru_cache(maxsize=32)
def _hermite_rule(nodes: int):
    """numpy's Gauss-Hermite nodes and weights, or None where they are not finite.

    numpy 2.4 returns NaN weights from 372 nodes on.
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


def gauss_hermite_transform(f, quad_nodes: int = 64, tol: float = 1e-10) -> complex:
    """(1/sqrt(pi)) integral of e^{-t^2} f(t), doubling the nodes until two sums agree to ``tol``.

    ``f`` takes one node at a time, at every node of the rule: f need
    not be even, so its odd part cancels.  An arbitrary f has no bound to
    plan the rule from, hence the doubling.  Raises NoConvergence when the
    doubling passes ``_NODE_CAP`` or reaches a node count whose rule is not
    finite, and ValueError for a ``tol`` that is not positive and finite or
    a first node count outside [20, ``_NODE_CAP``].
    """
    _check_tol(tol)
    if quad_nodes < 20:
        raise ValueError("quad_nodes must be at least 20")
    if quad_nodes > _NODE_CAP:
        raise ValueError(f"quad_nodes {quad_nodes} exceeds node_cap {_NODE_CAP}")
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
        val = sum(w * f(tt) for w, tt in zip(ws, ts)) / math.sqrt(math.pi)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        nodes *= 2
    raise NoConvergence(
        f"Gauss-Hermite transform did not stabilize below {tol} within {_NODE_CAP} nodes"
    )


def pairing_gaussian(t: HeatData, inp: PairingInput, tol: float = 1e-10) -> complex:
    """Gaussian transform of the generating functional at the origin, to ``tol``.

    The Taylor coefficients of J(t) are the levels <a, da, ..., da>_n, so
    the transform of t^{2k} weights level 2k as the series does.  The
    (K+1)-node rule, K = ``_Prepared.level(tol)``, integrates t^{2k}
    exactly for k <= K, and beyond it gives a value between 0 and the
    exact moment.  So its error is at most the series' tail
    ``_tail_after(K)``, below ``tol``, and one pass of that rule is the
    value.  Raises NoConvergence, before any exponential, when no finite
    rule within ``_NODE_CAP`` nodes reaches ``tol``.

    J is even: a and U(g) are gamma-even and d a is gamma-odd, so
    gamma (-H + i t da) gamma = -H - i t da and moving gamma around the
    trace gives J(-t) = J(t).  The rules are symmetric, so only the nodes
    t >= 0 get an exponential, with weight 2 w_j (w_j at the centre of an
    odd rule).  Inputs pass validation with residuals up to ``tol``, so
    the fold runs on the graded parts (``_Prepared.graded``).  They keep J
    even to rounding, and they move the value by O(residual^2), since the
    full rule cancels every first-order odd term.  The bound, taken on the
    raw lift, covers them: the graded da and gamma U(g) a have norms at
    most those of da and a, and Tr e^{-(H + gamma H gamma)/2} <= Tr e^{-H},
    as Tr exp is convex.
    """
    return _gaussian(_prepared(t, inp), tol)


def _gaussian(prep: _Prepared, tol: float) -> complex:
    """``pairing_gaussian`` on a prepared pass whose input is already
    validated: it plans the rule, samples its nodes in one call of its own
    and reads the value off them."""
    _check_tol(tol)
    zs, weights = prep.nodes(tol)
    (values,) = prep.sample(zs)
    return _read_gaussian(weights, values)


def _read_gaussian(weights: np.ndarray, values: np.ndarray) -> complex:
    """The folded rule's value off its samples ``values``, with the
    ``weights`` of its plan (``_Prepared.nodes``)."""
    # a Python sum: a BLAS dot here changes the CPU state in which perfbench's
    # gauge kernel runs, and with it every normalized time
    return sum(w * v for w, v in zip(weights, values)) / math.sqrt(math.pi)


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
    ``max_level`` (rounded down to even).  Levels 0..2K are the Taylor
    coefficients of the even J(-iz) = Tr(gamma U(g) a exp(-H + z da)):
    one stack of exponentials samples it on the circles of
    ``_Prepared.series_plan``, and one FFT per circle reads them off.
    Returns (value, 2K, tail_bound): the tail bound is that tail plus the
    circles' aliasing and rounding (``linalg.circle_errors``, with
    ``_SAMPLE_ROUNDING``), each weighted by |(-1/4)^k (2k)!/k!|; so it can
    sit a little above ``tol``.  Raises ValueError for a negative
    ``max_level`` or a ``tol`` that is not positive and finite,
    ComplexityCap when the circles exceed the sample budget, and Overflow
    when ||da||^2 leaves the float range.
    """
    _check_max_level(max_level)
    _check_tol(tol)
    prep = _prepared(t, inp)
    top, circles = prep.series_plan(max_level, tol)
    (values,) = prep.sample(circle_nodes(circles))
    return _read_series(prep, top, circles, values)


def _read_series(prep: _Prepared, top: int, circles, values) -> tuple[complex, int, float]:
    """``pairing_series``' (value, 2K, tail bound) off its samples ``values``
    at the nodes of ``circles``, with K = ``top``: the plan
    ``_Prepared.series_plan`` fixed."""
    log_s, x = prep.bound
    log_c = [math.log(abs(pairing_coefficient(k))) for k in range(top + 1)]
    terms = circle_levels(values, circles, log_c)
    total = sum((-1) ** k * terms[k] for k in range(top + 1))
    errors = circle_errors(circles, _SAMPLE_ROUNDING)
    sampled = sum(_exp(log_s + w + e) for w, e in zip(log_c, errors))
    return total, 2 * top, _tail_after(top, log_s, x) + sampled


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
    max_level: int = 32,
    tol: float = 1e-10,
) -> PairingResult:
    """Both routes to the pairing, with the quadrature as the reference.

    The series runs to a tail below min(``tol``, 1e-12) or to
    ``max_level``, and ``tail_bound`` bounds its distance to the exact
    pairing (``pairing_series``).  ``connes_value`` is the idempotent-form
    average (pairing + index)/2 under a = 2p - I.

    The input is validated once (``_prepared``), and both plans are fixed
    before any exponential (``_Prepared``): the series' level and circles,
    with its sample budget checked, then the quadrature's rule.  Then one
    ``exp_traces`` call samples the quadrature's nodes and the series'
    circles together (``_Prepared.sample``), and each route's reader takes
    its slice, with the bits its own call would give, and its plan.
    """
    _check_max_level(max_level)
    prep = _prepared(t, inp)
    _check_tol(tol)  # before either plan is read off tol
    series_tol = min(tol, 1e-12)
    prep.level(tol)  # the rule's K first: the series' scan resumes there
    top, circles = prep.series_plan(max_level, series_tol)
    zs, weights = prep.nodes(tol)
    quad_values, series_values = prep.sample(zs, circle_nodes(circles))
    quad = _read_gaussian(weights, quad_values)
    series, trunc, tail = _read_series(prep, top, circles, series_values)
    index = equivariant_index(prep.lift, inp.g)
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
    which costs m^{2n+1} evaluations per level; keep m small.  The m x m
    blocks of ``a`` are split once, and the tuples of a level go to the
    coboundary in batches of ``cochains._batch_size``.
    """
    _require_valid_input(t, inp)
    pf = op_partial(cochain)
    d = t.dim
    blocks = [
        [inp.a[i * d : (i + 1) * d, j * d : (j + 1) * d] for j in range(inp.m)]
        for i in range(inp.m)
    ]
    total = 0.0 + 0.0j
    for k in range(0, max_level // 2 + 1):
        n = 2 * k
        if n > pf.max_level:
            break
        coeff = pairing_coefficient(k)
        # idx[0] varies fastest; the summation order fixes the rounding
        tuples = (
            tuple(blocks[idx[j]][idx[(j + 1) % (n + 1)]] for j in range(n + 1))
            for idx in (rev[::-1] for rev in itertools.product(range(inp.m), repeat=n + 1))
        )
        while batch := list(itertools.islice(tuples, _batch_size(n, d))):
            for v in pf.many(n, batch, inp.g):
                total += coeff * v
    return abs(total)
