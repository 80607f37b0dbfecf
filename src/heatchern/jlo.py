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
only, the series on circles in w = z^2.  Both take their samples from
``linalg.exp_traces``, the one sampler of Tr(F e^{B + zX}), which the
levels of ``expectations.repeated_expectation_series`` share.  The two
routes therefore share the bound, the plan K, the graded parts and the
sampler; the closed form Tr(gamma U(g) a) of a plain pairing shares none
of them, and the tests hold both routes to it.  A plan past
``_NODE_CAP`` nodes, or one whose numpy rule is not finite, raises
NoConvergence before any exponential.
``_Prepared`` holds the work both routes share and validates nothing:
validation belongs to the entry point, once per request.  ``pairing``
validates its input once, fixes both plans and checks the series' sample
budget before either route takes an exponential, and shares that pass with
both routes for the duration of the call.  A sweep validates its input
once and builds one pass per point.

No function here takes a simplex plane: the plane-beta character is that of
the lift ``t.lifted(1, beta)``, a cocycle whose pairing is beta-independent
and whose ``connes_value`` uses the lift's index Tr(gamma U e^{-beta H}).
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cochains import Cochain, op_partial
from .errors import (
    DimensionMismatch,
    NoConvergence,
    Overflow,
    PairingInputInvalid,
    ValidationFailure,
)
from .expectations import _check_sample_budget, expectation_value
from .linalg import (
    Circle,
    as_matrix,
    cauchy_circles,
    circle_errors,
    circle_levels,
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
    "involution_from_idempotent",
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
    the sampler (``graded``), and the plan of both routes.

    It only prepares: the caller validates (t, inp) first, once per
    request, as ``_prepared`` does for a single pairing and each sweep does
    for its whole grid.  ``pairing`` makes its pass active for the duration
    of its call; ``pairing_gaussian`` and ``pairing_series`` take the active
    one when it was built on their (t, inp).  So no validation outlives the
    request that made it, and neither does ``a_norm``, ||a||: a sweep takes
    it once, beside its validation, and a pass built without it takes its
    own.
    """

    def __init__(self, t: HeatData, inp: PairingInput, a_norm: float | None = None):
        self.t, self.inp, self.a_norm = t, inp, a_norm
        self.lift = t.lifted(inp.m)
        self.h = self.lift.hamiltonian
        self.da = self.lift.derive(inp.a)
        self.front = self.lift.twist(inp.g) @ inp.a
        self._levels, self._plans = {}, {}

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
        tail ``_tail_after(K)`` is below ``tol``, or ``_NODE_CAP`` if none is."""
        if tol not in self._levels:
            log_s, x = self.bound
            top = 0
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
        key = (max_level, tol)
        if key not in self._plans:
            top = min(self.level(tol), max_level // 2)
            _, x = self.bound
            weights = [k * math.log(x) - math.lgamma(k + 1) if k else 0.0 for k in range(top + 1)]
            self._plans[key] = top, cauchy_circles(2.0 * math.sqrt(x), weights, step=2)
        top, circles = self._plans[key]
        _check_sample_budget(sum(c.points for c in circles), self.lift.dim)
        return top, circles

    def rule(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """The (K+1)-node Gauss-Hermite rule of ``pairing_gaussian``, K =
        ``level(tol)``.  Raises NoConvergence, before any exponential, when
        that exceeds ``_NODE_CAP`` nodes or the rule is not finite.
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
        return rule


# The prepared pass of the ``pairing`` call in progress, if any.
_ACTIVE: ContextVar[_Prepared | None] = ContextVar("heatchern_pairing", default=None)


def _prepared(t: HeatData, inp: PairingInput) -> _Prepared:
    """The active pass when it was built on this very (t, inp), else a new one
    on a freshly validated input: the one validation of a single pairing."""
    prep = _ACTIVE.get()
    if prep is not None and prep.t is t and prep.inp is inp:
        return prep
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
    """``pairing_gaussian`` on a prepared pass whose input is already validated."""
    _check_tol(tol)
    ts, ws = prep.rule(tol)
    half = ts.size // 2
    weights = 2.0 * ws[half:]
    if ts.size % 2:
        weights[0] = ws[half]
    values = exp_traces(*prep.graded, 1j * ts[half:])
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
    log_s, x = prep.bound
    zs = np.concatenate([c.nodes(2) for c in circles])
    values = exp_traces(*prep.graded, zs)
    log_c = [math.log(abs(pairing_coefficient(k))) for k in range(top + 1)]
    terms = circle_levels(values, circles, log_c, step=2)
    total = sum((-1) ** k * terms[k] for k in range(top + 1))
    errors = circle_errors(circles, _SAMPLE_ROUNDING, step=2)
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
    before either route takes an exponential (``_Prepared``): the series'
    level and circles, with its sample budget checked, then the
    quadrature's rule.
    """
    _check_max_level(max_level)
    prep = _prepared(t, inp)
    _check_tol(tol)  # before either plan is read off tol
    series_tol = min(tol, 1e-12)
    prep.series_plan(max_level, series_tol)
    prep.rule(tol)
    token = _ACTIVE.set(prep)
    try:
        quad = pairing_gaussian(t, inp, tol=tol)
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
