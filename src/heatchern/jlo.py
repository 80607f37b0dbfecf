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
the series is the cross-check.  Each doubling step of the quadrature
evaluates all its nodes as stacked exponentials of at most
``_STACK_ENTRIES`` complex entries each; the node rules are computed
once per node count, and a count whose numpy rule is not finite ends
the doubling with NoConvergence.

The beta-plane character is the plane-1 character of the data lifted
with sqrt(beta) Q, ``t.lifted(1, beta)``, which keeps it a cocycle and its
pairing beta-independent; both pairing routes take a plane that way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cochains import Cochain, op_partial
from .errors import (
    DimensionMismatch,
    NoConvergence,
    PairingInputInvalid,
    ValidationFailure,
)
from .expectations import (
    MAX_BLOCK_ORDER,
    expectation_value,
    repeated_expectation_series,
)
from .linalg import as_matrix, expm, opnorm
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


# Series levels of the first exponential in ``_series_terms``.
_FIRST_LEVELS = 16
# Complex entries in one stack of Gauss-Hermite exponentials (1 MiB).
# Unsliced 128-node stacks at dim 48 raised the sweep-quadrature
# benchmark's peak RSS from 97 to 120 MB.
_STACK_ENTRIES = 2**16


def pairing_coefficient(n: int) -> float:
    """Series weight (-1/4)^n (2n)!/n! on the level-2n component."""
    return (-0.25) ** n * math.factorial(2 * n) / math.factorial(n)


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
        ident = np.eye(big)
        gam = np.kron(np.eye(self.m), t.gamma)
        rep.add("a^2 = I", opnorm(self.a @ self.a - ident), t.tol)
        rep.add("gamma a gamma = a", opnorm(gam @ self.a @ gam - self.a), t.tol)
        for k, u in enumerate(t.group):
            ub = np.kron(np.eye(self.m), u)
            rep.add(
                f"a commutes with group[{k}]",
                opnorm(ub @ self.a - self.a @ ub),
                t.tol,
            )
        return rep


def _require_valid_input(t: HeatData, inp: PairingInput):
    inp.validate(t).require("pairing input fails preconditions", PairingInputInvalid)


@dataclass
class PairingResult:
    value: complex
    series_value: complex
    quadrature_value: complex
    truncation_level: int
    tail_bound: float
    connes_value: complex


def _check_even(t: HeatData, mats):
    for k, a in enumerate(mats):
        _check_shape(f"tuple[{k}]", a, t.dim)
        if opnorm(t.conj_gamma(a) - a) > t.tol * max(opnorm(a), 1.0):
            raise ValidationFailure(f"argument {k} is not gamma-even")


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
    if check_even:
        _check_even(t, mats)
    verts = [mats[0]] + [t.derive(a) for a in mats[1:]]
    return expectation_value(t, verts, g)


def jlo_cochain(t: HeatData, max_level: int = 32) -> Cochain:
    """The character packaged as an even class-C cochain."""

    def ev(n, mats, g):
        return jlo_component(t, n, mats, g, check_even=False)

    return Cochain(ev, t.group, max_level, "even", "C")


def _integrand(tb: HeatData, inp: PairingInput, h: np.ndarray):
    """Nodes t -> the vector of Tr(gamma U(g) a exp(-h + i t da)) on the lift ``tb``.

    ``h`` is the lift's H, or H plus a regularizer on the endpoint grid.
    The exponentials are taken as stacks of at most ``_STACK_ENTRIES``
    complex entries, a bound fixed before any stack is built.
    """
    da = tb.derive(inp.a)
    front = tb.twist(inp.g) @ inp.a
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
    return complex(_integrand(tb, inp, tb.hamiltonian)([z])[0])


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


def _gauss_hermite(
    values, quad_nodes: int = 64, tol: float = 1e-10, node_cap: int = 1024
) -> complex:
    """(1/sqrt(pi)) sum_j w_j f(t_j), doubling the nodes until two sums agree to ``tol``.

    ``values`` maps the vector of nodes t_j to the values f(t_j).  Raises
    NoConvergence when the doubling reaches ``node_cap`` or a node count
    whose rule is not finite.
    """
    if quad_nodes < 20:
        raise ValueError("quad_nodes must be at least 20")
    if quad_nodes > node_cap:
        raise ValueError(f"quad_nodes {quad_nodes} exceeds node_cap {node_cap}")
    prev = None
    nodes = quad_nodes
    while nodes <= node_cap:
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
        f"Gauss-Hermite transform did not stabilize below {tol} within {node_cap} nodes"
    )


def gauss_hermite_transform(
    f, quad_nodes: int = 64, tol: float = 1e-10, node_cap: int = 1024
) -> complex:
    """(1/sqrt(pi)) integral of e^{-t^2} f(t), with node doubling to ``tol``.

    ``f`` takes one node at a time.  Raises NoConvergence if successive
    doublings never stabilize below ``tol`` before the cap.
    """
    return _gauss_hermite(lambda ts: [f(tt) for tt in ts], quad_nodes, tol, node_cap)


def pairing_gaussian(
    t: HeatData,
    inp: PairingInput,
    quad_nodes: int = 64,
    tol: float = 1e-10,
    beta_plane: float = 1.0,
    node_cap: int = 1024,
) -> complex:
    """Gaussian transform of the generating functional at the origin."""
    _require_valid_input(t, inp)
    tb = t.lifted(inp.m, beta_plane)
    return _gauss_hermite(
        _integrand(tb, inp, tb.hamiltonian), quad_nodes, tol, node_cap
    )


def _check_max_level(max_level: int):
    if max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {max_level}")


def pairing_series(
    t: HeatData,
    inp: PairingInput,
    max_level: int = 32,
    tol: float = 1e-12,
    beta_plane: float = 1.0,
) -> tuple[complex, int, float]:
    """Partial sums of the weighted level series.

    Stops when a term falls below ``tol``; raises NoConvergence if the
    terms are still growing at ``max_level``, and ValueError for a
    negative ``max_level``.  The tail bound extrapolates the sampled
    geometric decay and is reported, not guaranteed.
    """
    _check_max_level(max_level)
    _require_valid_input(t, inp)
    tb = t.lifted(inp.m, beta_plane)
    terms = _series_terms(tb, inp.a, tb.derive(inp.a), inp.g, max_level)
    return _sum_series(terms, max_level, tol)


def _series_terms(t, a, da, g: int, max_level: int):
    """Weighted even terms (-1/4)^k (2k)!/k! <a, da, ..., da>_{2k}.

    Levels 0..N come from one exponential; N starts at _FIRST_LEVELS and
    doubles, up to ``max_level`` and the deepest level the block-order
    budget allows, only while the consumer asks for terms.  A request for
    a level past the budget raises ComplexityCap.
    """
    deepest = MAX_BLOCK_ORDER // t.dim - 1
    done, top = 0, min(_FIRST_LEVELS, max_level, max(deepest, 0))
    while True:
        raw = repeated_expectation_series(t, a, da, top, g)
        for n in range(done, top + 1):
            if n % 2 == 0:
                yield pairing_coefficient(n // 2) * raw[n]
        if top >= max_level:
            return
        done, top = top + 1, max(top + 1, min(2 * top, max_level, deepest))


def _sum_series(terms, max_level: int, tol: float) -> tuple[complex, int, float]:
    total = 0.0 + 0.0j
    prev_mag = None
    last_ratio = None
    trunc = 0
    converged = False
    for k, term in enumerate(terms):
        total += term
        mag = abs(term)
        if prev_mag is not None and prev_mag > 0:
            last_ratio = mag / prev_mag
        prev_mag = mag
        trunc = 2 * k
        if mag < tol:
            converged = True
            break
    if not converged and prev_mag is not None and prev_mag > tol and (
        last_ratio is None or last_ratio >= 1.0
    ):
        raise NoConvergence(f"series terms not decreasing by level {max_level}")
    if prev_mag is None or prev_mag < tol:
        tail = prev_mag if prev_mag is not None else 0.0
    elif last_ratio is not None and last_ratio < 1.0:
        tail = prev_mag * last_ratio / (1.0 - last_ratio)
    else:
        tail = math.inf
    return total, trunc, float(tail)


def equivariant_index(t: HeatData, g: int = 0) -> complex:
    """Tr(gamma U(g) e^{-H}), the a = I value of the pairing."""
    return t.heat_trace(g)


def pairing(
    t: HeatData,
    inp: PairingInput,
    quad_nodes: int = 64,
    max_level: int = 32,
    tol: float = 1e-10,
    beta_plane: float = 1.0,
) -> PairingResult:
    """Both routes to the pairing, with the quadrature as the reference.

    ``connes_value`` is the idempotent-form average (pairing + index)/2
    under a = 2p - I.
    """
    _check_max_level(max_level)
    quad = pairing_gaussian(t, inp, quad_nodes=quad_nodes, tol=tol, beta_plane=beta_plane)
    series, trunc, tail = pairing_series(
        t, inp, max_level=max_level, tol=min(tol, 1e-12), beta_plane=beta_plane
    )
    index = equivariant_index(t.lifted(inp.m), inp.g)
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
