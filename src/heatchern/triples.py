"""Graded spectral data: validation, derivatives, and norm diagnostics.

``HeatData`` is what every heat-kernel invariant is built from: a positive
generator H, a derivation d, a grading gamma and a finite list of
symmetry unitaries U(g) on a finite-dimensional space.  A triple is the
case H = Q^2 for a Hermitian Q anticommuting with gamma, with d the
graded commutator with Q; the split triple of ``split`` is another.  Fractional
smoothness enters through operator norms between the scales of (Q^2+I):
``sobolev_norm`` measures a transformation between two such scales, and
``interpolation_norm`` combines the plain norm of an element with the
smoothed norm of its derivative, weighted by the closed-form constant
c_mu = 2 B(1/2, (1-mu)/2) of ``numeric_c_mu``.  ``beta_fn`` is the one
Beta function of the package; ``algebraic_singular_integral``, the
quadrature engine that selftest C11 and the tests check c_mu against, is
the only code that loads scipy.

Every structural check is a residual ||x|| against ``tol``
(``CheckResult.of_norm``), and ``linalg.norm_certified`` decides it
without an SVD when ||x||_F <= tol/2, a bound the spectral norm cannot
exceed even after the SVD's rounding.  Only a check that bound cannot
decide, or whose ``residual`` is read (the ``validate`` command, a
report's text, a failure message), pays the SVD, so every printed
residual keeps the bits of the exact spectral norm.  The per-member
checks of a group hold the function that computes their residual, not
the residual, so a report on a large group costs no memory per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import BadExponent, DimensionMismatch, NotHermitian, Overflow, ValidationFailure
from .linalg import as_matrix, eig_hermitian, norm_certified, opnorm

__all__ = [
    "CheckResult",
    "ValidationReport",
    "HeatData",
    "SpectralTriple",
    "AlgebraElement",
    "VertexType",
    "RegularityReport",
    "KatoCurve",
    "validate_triple",
    "derivative",
    "sobolev_norm",
    "interpolation_norm",
    "beta_fn",
    "numeric_c_mu",
    "algebraic_singular_integral",
    "regularity_exponents",
    "kato_constants",
]


class CheckResult:
    """One check ``residual <= tol``, passed when ``certified`` or when it holds.

    ``residual`` and ``tol`` are given as floats, or as functions of no
    argument that compute them on first read, under the errstate of the
    checks.  A certified check keeps those functions until something reads
    the number: the ``validate`` command, the report's text, ``==`` or
    ``repr``.  A check the certificate leaves open reads both at once,
    since they decide it.  A NaN residual (an overflowed product) reads as
    inf.
    """

    def __init__(self, name: str, residual, tol, certified: bool = False):
        self.name, self.certified = name, certified
        self._residual, self._tol = residual, tol
        if not certified:
            _ = self.residual, self.tol  # the exact values decide an open check

    @classmethod
    def of_norm(cls, name: str, x, tol: float, scale=None, tol_scale=None):
        """The check ||x|| <= tol of the residual operator ``x``.

        With ``scale`` the residual is ||x|| / max(||scale||, 1), and with
        ``tol_scale`` the tol is tol max(||tol_scale||, 1).  Both factors
        are at least 1, so the certificate ||x||_F <= tol/2 decides the
        check against the plain tol, and the SVDs of x and of the scale run
        only when it cannot decide or the number is read.

        ``x`` is the operator, or a function of no argument that computes
        it.  A certified check holds the operator until it is read; given a
        function, it holds only what that function reads and computes the
        operator again for the read, so a report on a large group holds no
        residual per member.
        """
        operator = x() if callable(x) else x
        certified = norm_certified(operator, tol)
        if certified and callable(x):
            operator = None

        def residual():
            r = opnorm(x() if operator is None else operator)
            return r if scale is None else r / max(opnorm(scale), 1.0)

        full_tol = tol if tol_scale is None else lambda: tol * max(opnorm(tol_scale), 1.0)
        return cls(name, residual, full_tol, certified)

    @staticmethod
    def _read(value) -> float:
        if callable(value):
            with np.errstate(over="ignore", invalid="ignore"):
                value = value()
        return float(value)

    @cached_property
    def residual(self) -> float:
        r = self._read(self._residual)
        self._residual = None  # the operator a lazy residual holds is no longer needed
        return math.inf if math.isnan(r) else r

    @cached_property
    def tol(self) -> float:
        return self._read(self._tol)

    @property
    def passed(self) -> bool:
        return self.certified or self.residual <= self.tol

    def __eq__(self, other):
        if not isinstance(other, CheckResult):
            return NotImplemented
        return (self.name, self.residual, self.tol) == (other.name, other.residual, other.tol)

    __hash__ = None

    def __repr__(self):
        return f"CheckResult(name={self.name!r}, residual={self.residual!r}, tol={self.tol!r})"

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: residual {self.residual:.3e} (tol {self.tol:.3e})"


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, residual: float, tol: float):
        """Record one check of a computed residual."""
        self.checks.append(CheckResult(name, residual, tol))

    def add_norm(self, name: str, x, tol: float, scale=None, tol_scale=None):
        """Record ``CheckResult.of_norm``: the check ||x|| <= tol, certified when it can be."""
        self.checks.append(CheckResult.of_norm(name, x, tol, scale, tol_scale))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)

    def require(self, what: str, error=ValidationFailure):
        """Raise ``error`` naming ``what`` and every failed check, unless all pass."""
        if not self.passed:
            raise error(
                f"{what}:\n" + "\n".join(str(c) for c in self.failures), report=self
            )


def _check_shape(name: str, m: np.ndarray, dim: int) -> np.ndarray:
    """Return ``m``; raise DimensionMismatch naming ``name`` unless m is dim x dim."""
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"{name} has shape {m.shape}, expected ({dim}, {dim})")
    return m


# The per-member residuals of ``check_group`` and ``check_invariant``, passed
# as functions so that a report holds no product per member
def _commutator(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    return u @ x - x @ u


def _unitarity_defect(u: np.ndarray, ident: np.ndarray) -> np.ndarray:
    return u.conj().T @ u - ident


class HeatData:
    """A positive generator H, a derivation d, a grading gamma and a group U.

    Every heat-kernel invariant (expectations, the character, the pairing,
    the sweeps) is a functional of these four.  A subclass is a dataclass
    with fields ``dim``, its generator matrices (named in ``GENERATORS``),
    ``gamma``, ``group`` and ``tol``; it supplies ``_hamiltonian`` (H) and
    ``derive`` (d).  The base converts and shape-checks the matrices,
    checks that the group is not empty, hands out H as ``hamiltonian``
    (raising Overflow when an entry leaves the float range), caches the
    eigendecomposition of H, applies gamma U(g), and lifts the
    data to m x m blocks on a beta-plane.  It also owns the Z2 x G
    covariance checks every validator reports: the grading
    (``check_grading``), the group and its commutants (``check_group``)
    and the group invariance of one operator (``check_invariant``); and
    ``check_algebra``, the one test of a pairing input against an
    algebra smaller than all matrices.
    Matrices are treated as immutable once built.
    """

    GENERATORS = ()

    def __post_init__(self):
        names = self.GENERATORS + ("gamma",)
        for name in names:
            setattr(self, name, as_matrix(getattr(self, name), name))
        self.group = [as_matrix(u, f"group[{k}]") for k, u in enumerate(self.group)]
        for name, m in [(n, getattr(self, n)) for n in names] + [
            (f"group[{k}]", u) for k, u in enumerate(self.group)
        ]:
            _check_shape(name, m, self.dim)
        if not self.group:
            raise DimensionMismatch("group is empty; its first member must be the identity")
        self._heat = None
        self._lifts = {}

    @property
    def hamiltonian(self) -> np.ndarray:
        """H; every consumer reads it here, so an overflow is one named error."""
        with np.errstate(over="ignore", invalid="ignore"):
            h = self._hamiltonian()
        if not np.all(np.isfinite(h)):
            raise Overflow("generator H has non-finite entries: its matrices overflow")
        return h

    def heat_data(self):
        """Cached eigendecomposition (eigenvalues, eigenvectors) of H."""
        if self._heat is None:
            es = eig_hermitian(self.hamiltonian, tol=1e-8)
            self._heat = (es.eigenvalues, es.eigenvectors)
        return self._heat

    @cached_property
    def _sectors(self) -> np.ndarray | None:
        """The gamma sector, +1 or -1, of each eigenvector of H, or None.

        Taken once per instance, the first time the exact engine asks, so
        ``heat_data`` alone costs nothing more.  The signs exist only when
        gamma is diagonal with entries exactly +-1 and each eigenvector v
        satisfies gamma v == +-v bit for bit, that is, vanishes exactly
        off one sector; otherwise None.
        """
        basis = self.heat_data()[1]
        d = np.diagonal(self.gamma)
        if not (np.array_equal(self.gamma, np.diag(d)) and np.all((d == 1) | (d == -1))):
            return None
        gv = d[:, None] * basis
        plus = (gv == basis).all(axis=0)
        if not (plus | (gv == -basis).all(axis=0)).all():
            return None
        return np.where(plus, 1, -1)

    def lifted(self, m: int = 1, beta_plane: float = 1.0):
        """The same data on C^m (x) C^dim with every generator scaled by sqrt(beta).

        Its H is beta times the block-diagonal H and its d is sqrt(beta)
        times the block derivative, so plane-beta invariants of m x m
        inputs are plane-1 invariants of the lift.  It is the only code that
        applies a simplex plane or a block size to the data.  Each lift is
        built once per instance, so every caller shares its cached
        eigenbasis.  A plane beta <= 0, NaN or infinite raises BadExponent.
        """
        if not beta_plane > 0:
            raise BadExponent(f"beta_plane must be positive, got {beta_plane}")
        if beta_plane == math.inf:
            raise BadExponent(f"beta_plane must be finite, got {beta_plane}")
        if m == 1 and beta_plane == 1.0:
            return self
        key = (m, beta_plane)
        if key not in self._lifts:
            em = np.eye(m)
            scale = math.sqrt(beta_plane)
            self._lifts[key] = type(self)(
                dim=m * self.dim,
                **{n: scale * np.kron(em, getattr(self, n)) for n in self.GENERATORS},
                gamma=np.kron(em, self.gamma),
                group=[np.kron(em, u) for u in self.group],
                tol=self.tol,
            )
        return self._lifts[key]

    def twist(self, g: int) -> np.ndarray:
        """gamma U(g), the front factor of every heat trace."""
        if not 0 <= g < len(self.group):
            raise DimensionMismatch(f"group index {g} outside [0, {len(self.group)})")
        return self.gamma @ self.group[g]

    def conj_group_inv(self, a: np.ndarray, g: int) -> np.ndarray:
        """a^{g^{-1}} = U(g)* a U(g)."""
        u = self.group[g]
        return u.conj().T @ a @ u

    def conj_gamma(self, a: np.ndarray) -> np.ndarray:
        return self.gamma @ a @ self.gamma

    def check_grading(self, rep: ValidationReport):
        """Add "gamma hermitian" and "gamma^2 = I" to ``rep``."""
        rep.add_norm("gamma hermitian", self.gamma - self.gamma.conj().T, self.tol)
        rep.add_norm("gamma^2 = I", self.gamma @ self.gamma - np.eye(self.dim), self.tol)

    def check_group(self, rep: ValidationReport, commutants: dict):
        """Add "group[0] = I", then per member: unitary, commutes with gamma,
        and commutes with each named matrix of ``commutants`` in its order."""
        ident = np.eye(self.dim)
        named = {"gamma": self.gamma, **commutants}
        rep.add_norm("group[0] = I", self.group[0] - ident, self.tol)
        for k, u in enumerate(self.group):
            rep.add_norm(f"group[{k}] unitary", partial(_unitarity_defect, u, ident), self.tol)
            for name, x in named.items():
                commutes = f"group[{k}] commutes with {name}"
                rep.add_norm(commutes, partial(_commutator, u, x), self.tol)

    def check_invariant(self, rep: ValidationReport, name: str, x: np.ndarray):
        """Add "``name`` commutes with group[k]" for every member."""
        for k, u in enumerate(self.group):
            rep.add_norm(f"{name} commutes with group[{k}]", partial(_commutator, u, x), self.tol)

    def check_algebra(self, mats):
        """Raise unless every matrix of ``mats`` lies in the algebra the data
        pairs with.  Here that is every matrix; a subclass with a smaller
        algebra overrides it."""

    def heat_trace(self, g: int = 0) -> complex:
        """Tr(gamma U(g) e^{-H}); at heat time s it is ``lifted(1, s).heat_trace(g)``."""
        lam, v = self.heat_data()
        we = v.conj().T @ self.twist(g) @ v
        return complex(np.sum(np.diag(we) * np.exp(-lam)))


@dataclass(eq=False)
class SpectralTriple(HeatData):
    """Finite-dimensional bundle {H, Q, gamma, U(g), A} with H = Q^2.

    ``group`` is an ordered list of unitaries whose first element must be
    the identity.  The derivation is the graded commutator with Q.
    """

    dim: int
    Q: np.ndarray
    gamma: np.ndarray
    group: list[np.ndarray]
    tol: float = 1e-10

    GENERATORS = ("Q",)
    # in this class's own namespace too, so a tracer can wrap it here
    heat_data = HeatData.heat_data

    def _hamiltonian(self) -> np.ndarray:
        return self.Q @ self.Q

    def derive(self, b) -> np.ndarray:
        return derivative(self, b)


@np.errstate(over="ignore", invalid="ignore")
def validate_triple(t: SpectralTriple) -> ValidationReport:
    """Check every structural invariant; each failure is named with its residual."""
    rep = ValidationReport()
    rep.add_norm("Q hermitian", t.Q - t.Q.conj().T, t.tol, scale=t.Q)
    t.check_grading(rep)
    rep.add_norm("Q gamma + gamma Q = 0", t.Q @ t.gamma + t.gamma @ t.Q, t.tol)
    t.check_group(rep, {"Q": t.Q})
    return rep


def derivative(t: SpectralTriple, b) -> np.ndarray:
    """Graded derivative db = Q b - gamma b gamma Q.

    For gamma-even b this is the commutator [Q, b].
    """
    bm = _check_shape("b", as_matrix(b, "b"), t.dim)
    return t.Q @ bm - t.gamma @ bm @ t.gamma @ t.Q


@dataclass(frozen=True)
class VertexType:
    """Smoothing orders (beta, alpha) attached to a vertex."""

    beta: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.beta < 0 or self.alpha < 0:
            raise BadExponent(f"vertex type must be nonnegative, got {self}")


@dataclass
class AlgebraElement:
    """A gamma-even operator with a label, the basic observable."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, "algebra element")

    def validate(self, t: SpectralTriple) -> ValidationReport:
        rep = ValidationReport()
        rep.add_norm(
            f"{self.label or 'element'} gamma-even",
            t.conj_gamma(self.matrix) - self.matrix,
            t.tol,
        )
        return rep


def sobolev_norm(t: SpectralTriple, x, p2: float, p1: float) -> float:
    """Norm of x as a map between the (Q^2+I)-scales p1 -> p2.

    Returns ||(Q^2+I)^{p2/2} x (Q^2+I)^{-p1/2}|| computed in the eigenbasis
    of Q^2.
    """
    xm = _check_shape("x", as_matrix(x, "x"), t.dim)
    lam, v = t.heat_data()
    w = lam + 1.0
    xe = v.conj().T @ xm @ v
    scaled = (w ** (p2 / 2.0))[:, None] * xe * (w ** (-p1 / 2.0))[None, :]
    return opnorm(scaled)


def interpolation_norm(t: SpectralTriple, a: AlgebraElement, vt: VertexType) -> float:
    """||a|| + c_{alpha+beta} ||(Q^2+I)^{-beta/2} (da) (Q^2+I)^{-alpha/2}||."""
    mu = vt.alpha + vt.beta
    if mu >= 1:
        raise BadExponent(f"alpha + beta must be < 1, got {mu}")
    da = derivative(t, a.matrix)
    return opnorm(a.matrix) + numeric_c_mu(mu) * sobolev_norm(t, da, -vt.beta, vt.alpha)


def beta_fn(etas) -> float:
    """prod Gamma(eta_j) / Gamma(sum eta_j), via log-Gamma."""
    es = [float(e) for e in np.atleast_1d(etas)]
    if not es:
        raise DimensionMismatch("need at least one exponent")
    if any(e <= 0 for e in es):
        raise BadExponent(f"exponents must be positive, got {es}")
    return math.exp(sum(math.lgamma(e) for e in es) - math.lgamma(sum(es)))


def algebraic_singular_integral(f, a_pow: float, b_pow: float) -> float:
    """Adaptive quadrature of f(u) * u^a_pow * (1-u)^b_pow over (0, 1).

    Integrals over t in (0, inf) with algebraic behaviour at both ends are
    brought to this form by the substitution t = u/(1-u).  Selftest C11
    checks it on a companion integral (2 pi), and the tests use it as an
    independent oracle for ``numeric_c_mu``.  Requires a_pow, b_pow > -1.
    scipy is imported here, after the checks, so that importing the
    package needs numpy alone.
    """
    if a_pow <= -1 or b_pow <= -1:
        raise BadExponent(f"powers must exceed -1, got ({a_pow}, {b_pow})")
    from scipy import integrate

    val, _ = integrate.quad(
        f, 0.0, 1.0, weight="alg", wvar=(a_pow, b_pow), epsabs=0.0, epsrel=1e-12,
        limit=200,
    )
    return float(val)


def numeric_c_mu(mu: float) -> float:
    """sup over delta in [0,1] of 2 delta B(1 - delta/2, c), c = (1-mu)/2.

    The log-derivative 1/delta + (psi(1 - delta/2 + c) - psi(1 - delta/2))/2
    is positive, so the supremum is the value at delta = 1, the closed
    form 2 B(1/2, c).
    """
    if not (0.0 <= mu < 1.0):
        raise BadExponent(f"mu must lie in [0, 1), got {mu}")
    return 2.0 * beta_fn([0.5, (1.0 - mu) / 2.0])


@dataclass
class RegularityReport:
    etas: list[float]
    eta_local: float
    eta_global: float
    regular: bool


def regularity_exponents(types: list[VertexType]) -> RegularityReport:
    """Per-position exponents eta_j = 1 - (alpha_j + beta_{j+1})/2.

    The last beta wraps around to the first vertex.  The set is regular
    iff every eta_j is positive.
    """
    if not types:
        raise DimensionMismatch("need at least one vertex type")
    n1 = len(types)
    etas = [
        1.0 - 0.5 * (types[j].alpha + types[(j + 1) % n1].beta) for j in range(n1)
    ]
    eta_local = min(etas)
    eta_global = sum(etas) / n1
    return RegularityReport(etas, eta_local, eta_global, all(e > 0 for e in etas))


@dataclass
class KatoCurve:
    """Minimal relative bounds a(M) for q^2 <= a^2 Q^2 + M^2."""

    points: list[tuple[float, float]]

    @property
    def achievable_below_one(self) -> bool:
        return any(math.isfinite(a) and a < 1.0 for _, a in self.points)


def kato_constants(t: SpectralTriple, q, m_grid=None) -> KatoCurve:
    """Minimal a(M) with q^2 - a^2 Q^2 - M^2 I negative semidefinite.

    The default grid is M in {0, 1/4, 1/2, ..., 4} times ||q||.  Points
    where no finite a works (q^2 has weight on ker Q^2 exceeding M^2)
    carry a = inf.
    """
    qm = _check_shape("q", as_matrix(q, "q"), t.dim)
    dev = opnorm(qm - qm.conj().T)
    if dev > t.tol * max(opnorm(qm), 1.0):
        raise NotHermitian(f"q deviates from Hermitian by {dev:.3e}")
    qn = opnorm(qm)
    if m_grid is None:
        m_grid = [0.25 * k * qn for k in range(17)] if qn > 0 else [0.0]
    q2 = qm @ qm
    qsq = t.Q @ t.Q
    scale = max(opnorm(q2), 1.0)
    slack = 1e-12 * scale

    def psd_ok(a: float, m: float) -> bool:
        gap = a * a * qsq + (m * m) * np.eye(t.dim) - q2
        w = np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)
        return w[0] >= -slack

    points = []
    for m in m_grid:
        if psd_ok(0.0, m):
            points.append((float(m), 0.0))
            continue
        hi = 1.0
        while not psd_ok(hi, m) and hi < 2.0**30:
            hi *= 2.0
        if not psd_ok(hi, m):
            points.append((float(m), math.inf))
            continue
        # tolerance is relative once the answer is large (near-kernel
        # couplings can push the minimal a to astronomical values)
        lo = 0.0
        for _ in range(120):
            if hi - lo <= 1e-8 * max(1.0, lo):
                break
            mid = 0.5 * (lo + hi)
            if psd_ok(mid, m):
                hi = mid
            else:
                lo = mid
        points.append((float(m), hi))
    return KatoCurve(points)


def require_valid(t: SpectralTriple) -> SpectralTriple:
    validate_triple(t).require("triple fails validation")
    return t
