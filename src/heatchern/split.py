"""Split generators Q = (Q1 + Q2)/sqrt(2) and their invariants.

Independence means Q1 and Q2 anticommute, so the Hamiltonian splits as
H = Q^2 = (Q1^2 + Q2^2)/2 and the momentum P = (Q1^2 - Q2^2)/2 commutes
with H, with joint spectrum in the cone |P| <= H.  The symmetry group is
only required to commute with Q1 and with Q2^2, so the character is built
from the partial derivative d1 = [Q1, .] on the zero-momentum algebra
(elements commuting with P).  A SplitTriple is ``HeatData`` with that H
and the derivation d1, so expectations, the character and both pairing
routes are the plain-triple functions of ``jlo`` and ``expectations``.
It declares its own algebra: ``SplitTriple.check_algebra`` is the
zero-momentum test, and every pairing entry point of ``jlo`` runs it on
the lift after the input's shape check and before its other
preconditions, so an m x m block input is served like a scalar one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    PNotFixed,
    ValidationFailure,
    ZeroMomentumViolation,
)
from .homotopy import SweepTable, _grid
from .jlo import (
    PairingInput,
    PairingResult,
    _element,
    _gaussian,
    _Prepared,
    _require_valid_input,
    jlo_component,
    pairing,
)
from .linalg import as_matrix, eig_hermitian, expm, opnorm
from .triples import AlgebraElement, CheckResult, HeatData, ValidationReport, _check_shape

__all__ = [
    "SplitTriple",
    "SplitAlgebraElement",
    "validate_split",
    "d1",
    "split_jlo_component",
    "split_pairing",
    "coupling_sweep",
    "build_n2_susy_example",
]


@dataclass(eq=False)
class SplitTriple(HeatData):
    """Two independent Hermitian generators with a common grading and group.

    As ``HeatData`` it has H = (Q1^2 + Q2^2)/2 and the derivation d1.
    """

    dim: int
    Q1: np.ndarray
    Q2: np.ndarray
    gamma: np.ndarray
    group: list[np.ndarray]
    tol: float = 1e-10

    GENERATORS = ("Q1", "Q2")

    @property
    def Q(self) -> np.ndarray:
        return (self.Q1 + self.Q2) / math.sqrt(2.0)

    def _hamiltonian(self) -> np.ndarray:
        return (self.Q1 @ self.Q1 + self.Q2 @ self.Q2) / 2.0

    @property
    def momentum(self) -> np.ndarray:
        return (self.Q1 @ self.Q1 - self.Q2 @ self.Q2) / 2.0

    def derive(self, a) -> np.ndarray:
        return d1(self, a)

    def check_algebra(self, mats):
        """Raise ZeroMomentumViolation naming the first matrix with
        ||[P, a]|| > tol max(||a||, 1): the algebra is the commutant of P.
        Every matrix is first shape-checked (DimensionMismatch)."""
        for k, a in enumerate(mats):
            _check_shape(f"tuple[{k}]", a, self.dim)
        p = self.momentum
        for k, a in enumerate(mats):
            check = CheckResult.of_norm("zero-momentum", p @ a - a @ p, self.tol, tol_scale=a)
            if not check.passed:
                raise ZeroMomentumViolation(
                    f"argument {k} fails [P, a] = 0 with residual {check.residual:.3e}"
                )


class SplitAlgebraElement(AlgebraElement):
    """A gamma-even zero-momentum observable."""

    def validate(self, s: SplitTriple) -> ValidationReport:
        rep = super().validate(s)
        m, p = self.matrix, s.momentum
        rep.add_norm(f"{self.label or 'element'} zero-momentum", p @ m - m @ p, s.tol)
        return rep


@np.errstate(over="ignore", invalid="ignore")
def validate_split(s: SplitTriple) -> ValidationReport:
    """All structural invariants of the splitting, with residuals."""
    rep = ValidationReport()
    tol = s.tol
    # H first: an overflowing generator raises before any product warns
    h, p = s.hamiltonian, s.momentum
    rep.add_norm("Q1 hermitian", s.Q1 - s.Q1.conj().T, tol)
    rep.add_norm("Q2 hermitian", s.Q2 - s.Q2.conj().T, tol)
    s.check_grading(rep)
    rep.add_norm("independence Q1 Q2 + Q2 Q1 = 0", s.Q1 @ s.Q2 + s.Q2 @ s.Q1, tol)
    for name, qj in [("Q1", s.Q1), ("Q2", s.Q2)]:
        rep.add_norm(f"{name} gamma + gamma {name} = 0", qj @ s.gamma + s.gamma @ qj, tol)
    s.check_group(rep, {"Q1": s.Q1, "Q2^2": s.Q2 @ s.Q2})
    q = s.Q
    rep.add_norm("Q^2 = (Q1^2 + Q2^2)/2", q @ q - h, tol, tol_scale=h)
    for sign, name in [(1.0, "H + P"), (-1.0, "H - P")]:
        m = h + sign * p
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        rep.add(f"spectral cone {name} >= 0", max(0.0, -float(w[0])), tol)
    return rep


def require_valid_split(s: SplitTriple) -> SplitTriple:
    validate_split(s).require("split triple fails validation")
    return s


def zero_momentum_project(s: SplitTriple, m) -> np.ndarray:
    """Project onto the commutant of P by killing cross-sector blocks."""
    mm = as_matrix(m, "m")
    es = eig_hermitian(s.momentum, tol=1e-8)
    w, v = es.eigenvalues, es.eigenvectors
    me = v.conj().T @ mm @ v
    same = np.abs(w[:, None] - w[None, :]) < 1e-10 * max(abs(w[0]), abs(w[-1]), 1.0)
    return v @ (me * same) @ v.conj().T


def d1(s: SplitTriple, a) -> np.ndarray:
    """The partial derivative [Q1, a]."""
    am = _check_shape("a", as_matrix(a, "a"), s.dim)
    return s.Q1 @ am - am @ s.Q1


def split_jlo_component(s: SplitTriple, n: int, a_list, g: int = 0) -> complex:
    """tau_n = <a_0, d1 a_1, ..., d1 a_n; g> on zero-momentum arguments."""
    mats = [_element(m) for m in a_list]
    s.check_algebra(mats)
    return jlo_component(s, n, mats, g)


def split_pairing(
    s: SplitTriple,
    inp: PairingInput,
    max_level: int = 32,
    tol: float = 1e-10,
) -> PairingResult:
    """Both pairing routes, exponent -H + i t d1(a), on a zero-momentum input."""
    return pairing(s, inp, max_level=max_level, tol=tol)


def coupling_sweep(
    family,
    inp: PairingInput,
    lambda_grid,
    mode: str = "coupling",
    tol: float = 1e-10,
) -> SweepTable:
    """Pairing along a family of split triples.

    mode "coupling": the momentum P(lambda) must stay fixed (PNotFixed
    otherwise).  mode "q1_commuting": instead requires that Q1(lambda)
    commute with the input and that Q2 stay fixed.  An m x m input is
    paired, and compared with Q1, on the lift.

    The input is validated at every point, once, before that point's mode
    precondition.  Unlike the plain sweeps, these points cannot share one
    check: the family may move gamma, the group or P (in mode
    "q1_commuting" P moves with Q1), and the input's checks read all three,
    P as the zero-momentum algebra.
    """
    if mode not in ("coupling", "q1_commuting"):
        raise ValueError(f"unknown mode {mode!r}")
    grid = _grid("lambda_grid", lambda_grid)
    base = require_valid_split(family(grid[0]))
    p0 = base.momentum
    p_scale = max(opnorm(p0), 1.0)
    a_norm = opnorm(inp.a)
    q20 = base.Q2
    tab = SweepTable(columns=["lambda", "value", "p_residual", "precondition_residual"])
    for i, lam in enumerate(grid):
        s_lam = base if i == 0 else require_valid_split(family(lam))
        _require_valid_input(s_lam, inp)
        pres = opnorm(s_lam.momentum - p0)
        if mode == "coupling":
            if pres > s_lam.tol * p_scale:
                raise PNotFixed(
                    f"momentum moved at lambda={lam} with residual {pres:.3e}",
                    lam=lam,
                    residual=pres,
                )
            precond = 0.0
        else:
            q1 = s_lam.lifted(inp.m).Q1
            precond = opnorm(q1 @ inp.a - inp.a @ q1) + opnorm(s_lam.Q2 - q20)
            if precond > s_lam.tol * 10:
                raise ValidationFailure(
                    f"q1_commuting preconditions fail at lambda={lam} "
                    f"(residual {precond:.3e})"
                )
        val = _gaussian(_Prepared(s_lam, inp, a_norm), tol)
        tab.add_row(
            **{
                "lambda": lam,
                "value": val,
                "p_residual": pres,
                "precondition_residual": precond,
            }
        )
    return tab


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def build_n2_susy_example(
    levels=((1.0, 0.5),),
    taus=(0.0,),
    thetas=(0.0,),
    tol: float = 1e-10,
) -> tuple[SplitTriple, dict]:
    """Minimal Clifford model of two independent supercharge pairs.

    Each (h, p) level (requiring h >= |p| >= 0) contributes a 4-dim block
    carrying four mutually anticommuting Hermitian generators scaled so
    that Q1^2 = Qt1^2 = (h+p) I and Q2^2 = Qt2^2 = (h-p) I; the rotation
    generator J mixes (Q2, Qt2) and commutes with gamma, H, P, and Q1.
    The returned group is the identity followed by exp(i(tau P + theta J))
    for every requested (tau, theta) pair.

    Returns the split triple and a dict of the named generators.
    """
    levels = list(levels)
    if not levels:
        raise DimensionMismatch("need at least one (h, p) level")
    for h, p in levels:
        if h < abs(p):
            raise ValidationFailure(f"level (h={h}, p={p}) violates h >= |p|")
    g1 = np.kron(_SX, np.eye(2))
    g2 = np.kron(_SY, np.eye(2))
    g3 = np.kron(_SZ, _SX)
    g4 = np.kron(_SZ, _SY)
    gam4 = np.kron(_SZ, _SZ)
    j4 = 0.5j * (g3 @ g4)
    blocks = len(levels)
    dim = 4 * blocks

    def blockdiag(mats):
        out = np.zeros((dim, dim), dtype=complex)
        for k, m in enumerate(mats):
            out[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = m
        return out

    q1 = blockdiag([math.sqrt(h + p) * g1 for h, p in levels])
    qt1 = blockdiag([math.sqrt(h + p) * g2 for h, p in levels])
    q2 = blockdiag([math.sqrt(h - p) * g3 for h, p in levels])
    qt2 = blockdiag([math.sqrt(h - p) * g4 for h, p in levels])
    gam = blockdiag([gam4] * blocks)
    jop = blockdiag([j4] * blocks)
    pop = blockdiag([p * np.eye(4) for _, p in levels])
    group = [np.eye(dim, dtype=complex)]
    for tau in taus:
        for theta in thetas:
            if tau == 0.0 and theta == 0.0:
                continue
            group.append(expm(1j * (tau * pop + theta * jop)))
    s = SplitTriple(dim=dim, Q1=q1, Q2=q2, gamma=gam, group=group, tol=tol)
    require_valid_split(s)
    gens = {"Q1": q1, "Q2": q2, "Qt1": qt1, "Qt2": qt2, "J": jop, "P": pop}
    return s, gens
