"""Deformation families Q(lambda) = Q + q(lambda) and their invariants.

A regular family keeps the pairing constant in lambda.  The derivative of
the character along the family is a cochain L(lambda), itself the
coboundary of a cochain h(lambda); both are built from heat expectations
with one inserted velocity vertex.  Endpoint regularization replaces the
squared generator by H(eps, lambda) = Q(lambda)^2 + eps^2 Z*Z on a grid;
each grid value is ``pairing_gaussian`` on that heat data, and the sampled
residuals are ``norm_profile`` maxima.  A sweep validates its pairing input
once, against the base data, before its first point: the input's checks
read gamma, the group, tol and the algebra, and no deformation, plane or
regularizer moves them.  Each point is then a prepared pass alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .cochains import Cochain, norm_profile, op_partial
from .errors import BadExponent, ComplexityCap, DimensionMismatch, Overflow, ValidationFailure
from .expectations import MAX_BLOCK_ORDER, expectation_value
from .jlo import PairingInput, _gaussian, _Prepared, _require_valid_input, jlo_component
from .linalg import as_matrix, opnorm
from .triples import (
    SpectralTriple,
    ValidationReport,
    _check_shape,
    kato_constants,
    sobolev_norm,
    validate_triple,
)

__all__ = [
    "DeformationFamily",
    "SweepTable",
    "linear_family",
    "deform_triple",
    "regularity_report",
    "sweep_invariant",
    "L_cochain",
    "h_cochain",
    "coboundary_relation_residual",
    "jlo_lambda_fd_residual",
    "beta_independence",
    "endpoint_grid",
]


@dataclass
class DeformationFamily:
    """Base triple plus a perturbation path q(lambda).

    ``q_dot`` may be omitted, in which case the velocity is the symmetric
    difference quotient with step ``FD_STEP``.  The optional regularizer
    is a positive-semidefinite gamma-even group-commuting matrix (a Z*Z
    form) used by the endpoint grid.
    """

    base: SpectralTriple
    q: Callable[[float], np.ndarray]
    q_dot: Optional[Callable[[float], np.ndarray]] = None
    lambda_interval: tuple[float, float] = (-1.0, 1.0)
    regularizer: Optional[np.ndarray] = None

    FD_STEP = 1e-4

    def __post_init__(self):
        if self.regularizer is not None:
            z = as_matrix(self.regularizer, "regularizer")
            self.regularizer = _check_shape("regularizer", z, self.base.dim)

    def q_at(self, lam: float) -> np.ndarray:
        return _check_shape("q(lambda)", as_matrix(self.q(lam), "q(lambda)"), self.base.dim)

    def q_dot_at(self, lam: float) -> np.ndarray:
        if self.q_dot is not None:
            qd = as_matrix(self.q_dot(lam), "q_dot(lambda)")
            return _check_shape("q_dot(lambda)", qd, self.base.dim)
        h = self.FD_STEP
        return (self.q_at(lam + h) - self.q_at(lam - h)) / (2.0 * h)

    @np.errstate(over="ignore", invalid="ignore")
    def validate_at(self, lam: float) -> ValidationReport:
        t = self.base
        rep = ValidationReport()
        qm = self.q_at(lam)
        rep.add_norm("q hermitian", qm - qm.conj().T, t.tol)
        rep.add_norm("q gamma-odd", qm @ t.gamma + t.gamma @ qm, t.tol)
        t.check_invariant(rep, "q", qm)
        if self.regularizer is not None:
            z = self.regularizer
            rep.add_norm("regularizer hermitian", z - z.conj().T, t.tol)
            w = np.linalg.eigvalsh((z + z.conj().T) / 2.0)
            rep.add("regularizer PSD", max(0.0, -float(w[0])), t.tol)
            rep.add_norm("regularizer gamma-even", t.conj_gamma(z) - z, t.tol)
            t.check_invariant(rep, "regularizer", z)
        return rep


def linear_family(base: SpectralTriple, q, interval=(-1.0, 1.0), **kw) -> DeformationFamily:
    """The family q(lambda) = lambda q with exact velocity q."""
    qm = as_matrix(q, "q")
    return DeformationFamily(
        base=base,
        q=lambda lam: lam * qm,
        q_dot=lambda lam: qm,
        lambda_interval=interval,
        **kw,
    )


def deform_triple(f: DeformationFamily, lam: float) -> SpectralTriple:
    """The validated triple with Q replaced by Q + q(lambda)."""
    deformed = replace(f.base, Q=f.base.Q + f.q_at(lam))
    validate_triple(deformed).require(
        f"deformed triple at lambda={lam} fails validation"
    )
    return deformed


@dataclass
class SweepTable:
    """Rows of grid coordinates, complex values, and diagnostics."""

    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **kw):
        self.rows.append(kw)

    def values(self) -> np.ndarray:
        return np.array([r["value"] for r in self.rows], dtype=complex)

    def spread(self) -> float:
        v = self.values()
        return float(
            max((abs(a - b) for i, a in enumerate(v) for b in v[i + 1 :]), default=0.0)
        )

    def to_jsonable(self) -> dict:
        """Columns and rows with each complex cell as [re, im]; a table with
        a "value" column also carries its ``spread``."""
        out_rows = []
        for r in self.rows:
            row = {}
            for c in self.columns:
                val = r.get(c)
                row[c] = [val.real, val.imag] if isinstance(val, complex) else val
            out_rows.append(row)
        out = {"columns": list(self.columns), "rows": out_rows}
        if "value" in self.columns:
            out["spread"] = self.spread()
        return out

    def to_csv_rows(self) -> list[list]:
        complex_cols = {
            c for c in self.columns if any(isinstance(r.get(c), complex | None) for r in self.rows)
        }
        header = []
        for c in self.columns:
            if c in complex_cols:
                header += [f"re({c})", f"im({c})"]
            else:
                header.append(c)
        out = [header]
        for r in self.rows:
            line = []
            for c in self.columns:
                val = r.get(c)
                if c in complex_cols:
                    if val is None:
                        line += ["", ""]
                    else:
                        val = complex(val)
                        line += [val.real, val.imag]
                else:
                    line.append(val)
            out.append(line)
        return out


def _check_grid_points(name: str, points: int):
    """Raise ComplexityCap when a grid of ``points`` points exceeds the budget
    ``MAX_BLOCK_ORDER``; callers check before they allocate the grid."""
    if points > MAX_BLOCK_ORDER:
        raise ComplexityCap(f"{name} has {points} points, which exceeds budget {MAX_BLOCK_ORDER}")


def _grid(name: str, values) -> list[float]:
    """The points of a lambda or eps grid as sorted floats; DimensionMismatch
    "<name> has no points" when there are none."""
    grid = sorted(float(x) for x in values)
    if not grid:
        raise DimensionMismatch(f"{name} has no points")
    return grid


def regularity_report(f: DeformationFamily, lambda_grid) -> SweepTable:
    """Per-lambda diagnostics: relative bounds, norms, velocity checks.

    Reports the minimal Kato constant a(M) curve summary against the base
    Q (a at M = 0 and the least finite a), the smoothing-scale norms of q
    at the window edges, and the deviation of the declared velocity from the
    symmetric difference quotient.  Report-only; nothing is enforced.
    """
    t = f.base
    grid = [float(x) for x in lambda_grid]
    tab = SweepTable(
        columns=[
            "lambda",
            "kato_a_at_0",
            "kato_min_a",
            "q_norm",
            "qdot_norm",
            "fd_vs_qdot",
            "q_norm_eps_0",
            "q_norm_eps_01",
            "q_norm_eps_09",
            "q_norm_eps_1",
            "qdot_continuity",
        ]
    )
    prev_qdot = None
    for lam in grid:
        qm = f.q_at(lam)
        qd = f.q_dot_at(lam)
        curve = kato_constants(t, qm)
        finite = [a for _, a in curve.points if math.isfinite(a)]
        h = f.FD_STEP
        fd = (f.q_at(lam + h) - f.q_at(lam - h)) / (2.0 * h)
        # (0,1)- and (-1,0)-scale gaps between velocity and quotient
        fd_gap = sobolev_norm(t, fd - qd, 0, 1) + sobolev_norm(t, fd - qd, -1, 0)
        cont = (
            sobolev_norm(t, qd - prev_qdot, 0, 1)
            + sobolev_norm(t, qd - prev_qdot, -1, 0)
            if prev_qdot is not None
            else 0.0
        )
        tab.add_row(
            **{
                "lambda": lam,
                "kato_a_at_0": curve.points[0][1],
                "kato_min_a": min(finite) if finite else math.inf,
                "q_norm": opnorm(qm),
                "qdot_norm": opnorm(qd),
                "fd_vs_qdot": fd_gap,
                "q_norm_eps_0": sobolev_norm(t, qm, 0, 1),
                "q_norm_eps_01": sobolev_norm(t, qm, -0.1, 0.9),
                "q_norm_eps_09": sobolev_norm(t, qm, -0.9, 0.1),
                "q_norm_eps_1": sobolev_norm(t, qm, -1, 0),
                "qdot_continuity": cont,
            }
        )
        prev_qdot = qd
    return tab


def sweep_invariant(
    f: DeformationFamily,
    inp: PairingInput,
    lambda_grid,
    tol: float = 1e-10,
) -> SweepTable:
    """Pairing values along the family; constant for regular families.

    The input is validated once, against the base triple, and each deformed
    triple at its point; the sweep aborts with PairingInputInvalid or
    ValidationFailure rather than reporting a meaningless spread.
    """
    grid = _grid("lambda_grid", lambda_grid)
    _require_valid_input(f.base, inp)
    a_norm = opnorm(inp.a)
    tab = SweepTable(columns=["lambda", "value", "validated"])
    for lam in grid:
        val = _gaussian(_Prepared(deform_triple(f, lam), inp, a_norm), tol)
        tab.add_row(**{"lambda": lam, "value": val, "validated": True})
    return tab


def L_cochain(f: DeformationFamily, lam: float) -> Cochain:
    """The lambda-derivative of the character as an even class-C cochain.

    L_n(a_0..a_n;g) is the sum over commutator insertions
    <a_0, .., [qdot, a_j], .., da_n> minus the sum over velocity-vertex
    insertions <a_0, .., da_j, d(qdot), da_{j+1}, ..>_{n+1}, everything
    built from the deformed triple at lambda.
    """
    t_lam = deform_triple(f, lam)
    qdot = f.q_dot_at(lam)
    dl_qdot = t_lam.Q @ qdot + qdot @ t_lam.Q

    def ev(n, mats, g):
        dmats = [t_lam.derive(a) for a in mats]
        tot = 0.0 + 0.0j
        for j in range(1, n + 1):
            verts = (
                [mats[0]]
                + dmats[1:j]
                + [qdot @ mats[j] - mats[j] @ qdot]
                + dmats[j + 1 :]
            )
            tot += expectation_value(t_lam, verts, g)
        for j in range(0, n + 1):
            verts = [mats[0]] + dmats[1 : j + 1] + [dl_qdot] + dmats[j + 1 :]
            tot -= expectation_value(t_lam, verts, g)
        return tot

    return Cochain(ev, t_lam.group, 32, "C")


def h_cochain(f: DeformationFamily, lam: float) -> Cochain:
    """The odd class-C cochain whose coboundary is L(lambda).

    h_n(a_0..a_n;g) = - sum_k (-1)^k <a_0, da_1, .., da_k, qdot,
    da_{k+1}, .., da_n;g>_{n+1} over the deformed triple.
    """
    t_lam = deform_triple(f, lam)
    qdot = f.q_dot_at(lam)

    def ev(n, mats, g):
        dmats = [t_lam.derive(a) for a in mats]
        tot = 0.0 + 0.0j
        for k in range(0, n + 1):
            verts = [mats[0]] + dmats[1 : k + 1] + [qdot] + dmats[k + 1 :]
            tot += (-1) ** k * expectation_value(t_lam, verts, g)
        return -tot

    return Cochain(ev, t_lam.group, 32, "C")


def coboundary_relation_residual(
    f: DeformationFamily,
    lam: float,
    samples: int = 3,
    levels=(0, 1, 2),
    seed: int = 0,
) -> float:
    """max |L_n(tuple) - (bh + Bh)_n(tuple)| over seeded gamma-even tuples."""
    L = L_cochain(f, lam)
    ph = op_partial(h_cochain(f, lam))
    gap = Cochain(lambda n, mats, g: L(n, mats, g) - ph(n, mats, g), L.group, L.max_level, "D")
    prof = norm_profile(gap, f.base, levels, seed=seed, samples=samples)
    return max(v for _, v in prof.levels)


def jlo_lambda_fd_residual(
    f: DeformationFamily,
    lam: float,
    n: int,
    mats,
    g: int = 0,
) -> float:
    """|central difference of tau_n across lambda, step FD_STEP, - L_n(lambda)|."""
    step = f.FD_STEP
    t_plus = deform_triple(f, lam + step)
    t_minus = deform_triple(f, lam - step)
    fd = (
        jlo_component(t_plus, n, mats, g, check_even=False)
        - jlo_component(t_minus, n, mats, g, check_even=False)
    ) / (2.0 * step)
    return abs(fd - L_cochain(f, lam)(n, tuple(mats), g))


def beta_independence(
    t: SpectralTriple,
    inp: PairingInput,
    beta_list,
    tol: float = 1e-10,
) -> SweepTable:
    """Pairing of the lift ``t.lifted(1, beta)`` per plane; the values agree for a fixed triple."""
    betas = [float(b) for b in beta_list]
    if not betas:
        raise DimensionMismatch("beta_list has no values")
    # once, on t: a plane scales the generators only.  So an invalid input is
    # reported before a bad plane, where a lone pairing would lift first
    _require_valid_input(t, inp)
    a_norm = opnorm(inp.a)
    tab = SweepTable(columns=["beta", "value"])
    for beta in betas:
        val = _gaussian(_Prepared(t.lifted(1, beta), inp, a_norm), tol)
        tab.add_row(beta=beta, value=val)
    return tab


@dataclass(eq=False)
class _Regularized(SpectralTriple):
    """A triple with H = Q^2 + R and d still the graded commutator with Q.

    Only plane 1 is meaningful: scaling every generator by sqrt(beta) would
    give H = beta Q^2 + sqrt(beta) R where a plane-beta H needs beta R, so
    ``lifted`` refuses beta != 1.  The endpoint grid, its only builder, runs
    on plane 1.
    """

    R: np.ndarray = field(kw_only=True)

    GENERATORS = ("Q", "R")

    def _hamiltonian(self) -> np.ndarray:
        return self.Q @ self.Q + self.R

    def lifted(self, m: int = 1, beta_plane: float = 1.0):
        """The m-block lift on plane 1; any other plane raises BadExponent."""
        if beta_plane != 1.0:
            raise BadExponent(
                f"a regularized triple lifts on plane 1 only, got beta_plane {beta_plane}"
            )
        return super().lifted(m)


def endpoint_grid(
    f: DeformationFamily,
    eps_grid,
    lambda_grid,
    inp: PairingInput,
    tol: float = 1e-10,
) -> SweepTable:
    """Regularized pairing over an (eps, lambda) grid.

    Each entry is ``pairing_gaussian`` on the deformed triple with H(eps,
    lambda) = Q(lambda)^2 + eps^2 Z*Z, the exponent -H(eps, lambda) + i t
    d_lambda(a).  Central finite-difference estimates of the eps- and
    lambda-derivatives are attached to interior grid points.  More than
    ``MAX_BLOCK_ORDER`` (eps, lambda) points raise ComplexityCap before any
    pairing.  The family is checked at the least lambda and the input
    against the base triple, once each; every lambda is then deformed once,
    and an eps whose eps^2 Z*Z leaves the float range raises Overflow.
    """
    if f.regularizer is None:
        raise ValidationFailure("endpoint grid needs a family with a regularizer")
    eg, lg = _grid("eps_grid", eps_grid), _grid("lambda_grid", lambda_grid)
    _check_grid_points(f"the (eps, lambda) grid {len(eg)}*{len(lg)}", len(eg) * len(lg))
    f.validate_at(lg[0]).require("family fails validation")
    _require_valid_input(f.base, inp)
    a_norm = opnorm(inp.a)
    deformed = [deform_triple(f, l) for l in lg]
    vals = np.empty((len(eg), len(lg)), dtype=complex)
    for i, e in enumerate(eg):
        try:
            with np.errstate(over="raise", invalid="raise"):
                r = e**2 * f.regularizer
        except (OverflowError, FloatingPointError):
            raise Overflow(f"regularizer eps^2 Z*Z overflows at eps = {e}") from None
        for j, t in enumerate(deformed):
            reg = _Regularized(t.dim, t.Q, t.gamma, t.group, t.tol, R=r)
            vals[i, j] = _gaussian(_Prepared(reg, inp, a_norm), tol)
    tab = SweepTable(columns=["lambda", "eps", "value", "dZ_deps", "dZ_dlambda"])
    for j, l in enumerate(lg):
        for i, e in enumerate(eg):
            tab.add_row(
                **{
                    "lambda": l,
                    "eps": e,
                    "value": vals[i, j],
                    "dZ_deps": _central(vals[:, j], eg, i),
                    "dZ_dlambda": _central(vals[i], lg, j),
                }
            )
    return tab


def _central(v: np.ndarray, grid: list[float], k: int) -> Optional[complex]:
    """The central difference of ``v`` over ``grid`` at point k; None at either end."""
    if 0 < k < len(grid) - 1:
        return (v[k + 1] - v[k - 1]) / (grid[k + 1] - grid[k - 1])
    return None
