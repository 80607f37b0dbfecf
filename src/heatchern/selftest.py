"""The acceptance suite: one callable per criterion, plus a runner.

Every criterion is deterministic given the master seed; sub-seeds are
derived arithmetically.  The runner re-executes the whole battery to
certify byte-identical reports (criterion 15), so a full run costs twice
the base time.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import __version__
from .cochains import (
    op_A,
    op_B,
    op_T,
    op_U,
    op_V,
    op_b,
    op_partial,
    random_cochain,
)
from .errors import PNotFixed
from .expectations import (
    beta_fn,
    check_cyclic,
    check_d_invariance,
    check_insert_identity,
    duhamel_commutator,
    expectation_value,
)
from .homotopy import (
    beta_independence,
    coboundary_relation_residual,
    endpoint_grid,
    jlo_lambda_fd_residual,
    linear_family,
    sweep_invariant,
)
from .jlo import (
    PairingInput,
    coboundary_pairing_residual,
    equivariant_index,
    gauss_hermite_transform,
    jlo_cochain,
    pairing,
)
from .linalg import opnorm, simplex_exp
from .models import (
    exchange_triple,
    random_even_element,
    random_involution,
    random_odd_element,
    random_triple,
    zero_mode_triple,
)
from .serialization import dumps_canonical
from .split import (
    build_n2_susy_example,
    coupling_sweep,
    validate_split,
    zero_momentum_project,
)
from .triples import kato_constants, numeric_c_mu, algebraic_singular_integral

CRITERIA = {}


def _criterion(cid, description):
    def wrap(fn):
        CRITERIA[cid] = (description, fn)
        return fn

    return wrap


def _simplex_samples(rng, n, m):
    e = rng.exponential(size=(m, n + 1))
    return e / e.sum(axis=1, keepdims=True)


@_criterion("C01", "beta-function identities and Monte-Carlo cross-check")
def _c01(seed):
    cases = []
    ok = True
    for etas, exact in [((1, 1, 1), 0.5), ((0.5, 1), 2.0), ((0.5, 0.5, 1), math.pi)]:
        err = abs(beta_fn(etas) - exact)
        ok &= err < 1e-12
        cases.append({"etas": list(etas), "abs_error": err})
    rng = np.random.default_rng(seed)
    for etas in [(1.0, 1.0), (0.5, 1.0), (0.5, 0.5, 1.0)]:
        n = len(etas) - 1
        u = _simplex_samples(rng, n, 10**6)
        vals = np.prod(u ** (np.array(etas) - 1.0), axis=1)
        measure = 1.0 / math.factorial(n)
        est = measure * float(vals.mean())
        se = measure * float(vals.std()) / math.sqrt(vals.size)
        diff = abs(est - beta_fn(etas))
        ok &= diff <= 3.0 * se + 1e-15
        cases.append(
            {"etas": list(etas), "mc": est, "exact": beta_fn(etas), "three_se": 3 * se}
        )
    return ok, {"cases": cases}


@_criterion("C02", "simplex transform vs Monte-Carlo and confluent exactness")
def _c02(seed):
    rng = np.random.default_rng(seed)
    ok = True
    mc_cases = []
    for n in range(6):
        pts = rng.uniform(0.0, 10.0, n + 1)
        exact = simplex_exp(pts, 1.0)
        u = _simplex_samples(rng, n, 10**6)
        vals = np.exp(-(u @ pts))
        measure = 1.0 / math.factorial(n)
        est = measure * float(vals.mean())
        se = measure * float(vals.std()) / math.sqrt(vals.size)
        diff = abs(est - exact)
        ok &= diff <= 3.0 * se + 1e-15
        mc_cases.append({"n": n, "exact": exact, "mc": est, "three_se": 3 * se})
    conf_cases = []
    for n in range(1, 6):
        lam = float(rng.uniform(0.0, 10.0))
        err = abs(simplex_exp([lam] * (n + 1), 1.0) - math.exp(-lam) / math.factorial(n))
        ok &= err < 1e-13
        conf_cases.append({"n": n, "lambda": lam, "abs_error": err})
    return ok, {"monte_carlo": mc_cases, "confluent": conf_cases}


@_criterion("C03", "complex operator identities on seeded cochains")
def _c03(seed):
    worst = 0.0
    rng = np.random.default_rng(seed)
    for i in range(50):
        kind = "z2" if i % 2 else "trivial"
        t = random_triple(3, seed=seed + 17 * i + 1, group=kind)
        G = random_cochain(t, seed=seed + 31 * i + 2, max_level=7)
        fN = op_U(G)
        n = int(rng.integers(0, 4))
        g = int(rng.integers(0, len(t.group)))

        def tup(k):
            return tuple(random_even_element(t, rng) for _ in range(k + 1))

        # (II.5) T^{n+1} = I on class N
        mats = tup(n)
        tf = fN
        for _ in range(n + 1):
            tf = op_T(tf)
        worst = max(worst, abs(tf(n, mats, g) - fN(n, mats, g)))
        # (II.10) U V = I
        worst = max(worst, abs(op_U(op_V(0, G))(n, mats, g) - G(n, mats, g)))
        # (II.11) U V(r) + V(r-1) U = 0 for 1 <= r <= n
        if n >= 1:
            r = int(rng.integers(1, n + 1))
            v1 = op_U(op_V(r, G))(n, mats, g)
            v2 = op_V(r - 1, op_U(G))(n, mats, g)
            worst = max(worst, abs(v1 + v2))
        # (II.12) U V(n+1) = -T on class N
        worst = max(
            worst, abs(op_U(op_V(n + 1, fN))(n, mats, g) + op_T(fN)(n, mats, g))
        )
        # (II.13) V(r)V(s) + V(s+1)V(r) = 0 for 0 <= r <= s <= n+1
        r = int(rng.integers(0, n + 2))
        s = int(rng.integers(r, n + 2))
        mats2 = tup(n + 2)
        v1 = op_V(r, op_V(s, G))(n + 2, mats2, g)
        v2 = op_V(s + 1, op_V(r, G))(n + 2, mats2, g)
        worst = max(worst, abs(v1 + v2))
        # coboundaries
        m = max(n, 1)
        matsb = tup(m + 1)
        worst = max(worst, abs(op_b(op_b(G))(m + 1, matsb, g)))
        matsm = tup(m)
        worst = max(worst, abs(op_B(op_B(G))(m, matsm, g)))
        worst = max(
            worst,
            abs(op_b(op_B(G))(m, matsm, g) + op_B(op_b(G))(m, matsm, g)),
        )
        worst = max(worst, abs(op_partial(op_partial(G))(m, matsm, g)))
        # antisymmetrization stays consistent with its T-power definition
        a1 = op_A(fN)(n, mats, g)
        a2 = sum(
            _iterated_T(fN, j)(n, mats, g) for j in range(n + 1)
        )
        worst = max(worst, abs(a1 - a2))
    return worst < 1e-10, {"worst_residual": worst}


def _iterated_T(f, j):
    for _ in range(j):
        f = op_T(f)
    return f


@_criterion("C04", "identity-vertex expectations reproduce the index over n!")
def _c04(seed):
    worst = 0.0
    details = []
    for i in range(10):
        dim = 2 + (i % 5)
        t = random_triple(dim, seed=seed + i, group="z2" if i % 3 == 0 else "trivial")
        ident = np.eye(dim, dtype=complex)
        base = t.heat_trace(0)
        for n in range(6):
            val = expectation_value(t, [ident] * (n + 1), 0)
            err = abs(val - base / math.factorial(n))
            worst = max(worst, err)
        details.append({"dim": dim, "index": base})
    return worst < 1e-10, {"worst_residual": worst, "triples": details}


@_criterion("C05", "expectation symmetries and the insertion identity")
def _c05(seed):
    rng = np.random.default_rng(seed)
    worst = {"gamma": 0.0, "group": 0.0, "cyclic": 0.0, "insert": 0.0, "dinv": 0.0}
    for i in range(20):
        dim = 3 + (i % 2)
        kind = "z2" if i % 2 else "trivial"
        t = random_triple(dim, seed=seed + 7 * i, group=kind)
        n = 1 + (i % 2)
        mats = [
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for _ in range(n + 1)
        ]
        g = i % len(t.group)
        lhs = expectation_value(t, mats, g)
        conj_gamma = [t.conj_gamma(m) for m in mats]
        worst["gamma"] = max(
            worst["gamma"], abs(lhs - expectation_value(t, conj_gamma, g))
        )
        u = t.group[g]
        conj_g = [u @ m @ u.conj().T for m in mats]
        worst["group"] = max(
            worst["group"], abs(lhs - expectation_value(t, conj_g, g))
        )
        worst["cyclic"] = max(worst["cyclic"], check_cyclic(t, mats, g))
        worst["insert"] = max(worst["insert"], check_insert_identity(t, mats, g))
        worst["dinv"] = max(worst["dinv"], check_d_invariance(t, mats, g))
    ok = all(v < 1e-9 for v in worst.values())
    return ok, {"worst_residuals": worst}


@_criterion("C06", "character cocycle and odd-component vanishing")
def _c06(seed):
    rng = np.random.default_rng(seed)
    worst_cocycle = 0.0
    worst_odd = 0.0
    count = 0
    for i in range(5):
        dim = 3 + (i % 3)
        t = random_triple(dim, seed=seed + 11 * i, group="z2" if i == 2 else "trivial")
        tau = jlo_cochain(t)
        ptau = op_partial(tau)
        for j in range(4):
            n = 1 + (i + j) % 4
            mats = tuple(random_even_element(t, rng) for _ in range(n + 1))
            g = (i + j) % len(t.group)
            worst_cocycle = max(worst_cocycle, abs(ptau(n, mats, g)))
            count += 1
        for n in (1, 3):
            mats = tuple(random_even_element(t, rng) for _ in range(n + 1))
            worst_odd = max(worst_odd, abs(tau(n, mats, 0)))
    ok = worst_cocycle < 1e-8 and worst_odd < 1e-12
    return ok, {
        "worst_cocycle_residual": worst_cocycle,
        "worst_odd_component": worst_odd,
        "tuples_checked": count,
    }


@_criterion("C07", "pairing coherence: series vs Gaussian vs closed forms")
def _c07(seed):
    rng = np.random.default_rng(seed)
    ok = True
    details = {}
    t2 = exchange_triple()
    res = pairing(t2, PairingInput(a=t2.gamma.copy()))
    details["exchange_gamma"] = {
        "series": res.series_value,
        "quadrature": res.quadrature_value,
    }
    ok &= abs(res.series_value - 2.0) < 1e-8
    ok &= abs(res.quadrature_value - 2.0) < 1e-8
    index_cases = []
    for t in (t2, zero_mode_triple()):
        resi = pairing(t, PairingInput(a=np.eye(t.dim, dtype=complex)))
        idx = equivariant_index(t)
        index_cases.append(abs(resi.value - idx))
        ok &= abs(resi.value - idx) < 1e-8
        ok &= abs(resi.series_value - resi.quadrature_value) < 1e-8
    details["index_cases_abs_error"] = index_cases
    worst_pair = 0.0
    for i in range(10):
        dim = 2 + (i % 3)
        t = random_triple(dim, seed=seed + 3 * i, group="z2" if i % 4 == 0 else "trivial")
        a = random_involution(t, rng)
        res = pairing(t, PairingInput(a=a))
        worst_pair = max(worst_pair, abs(res.series_value - res.quadrature_value))
    ok &= worst_pair < 1e-8
    details["worst_series_vs_quadrature"] = worst_pair
    tg = random_triple(2, seed=seed + 101, group="trivial")
    G = random_cochain(tg, seed=seed + 102, max_level=15)
    # the grading is a nondegenerate involution on every triple
    cres = coboundary_pairing_residual(
        tg, G, PairingInput(a=tg.gamma.copy()), max_level=14
    )
    ok &= cres < 1e-8
    details["coboundary_pairing_residual"] = cres
    return ok, details


@_criterion("C08", "Gauss-Hermite even moments")
def _c08(seed):
    worst = 0.0
    for n in range(7):
        exact = math.factorial(2 * n) / (math.factorial(n) * 4.0**n)
        val = gauss_hermite_transform(lambda tt: tt ** (2 * n), quad_nodes=64)
        worst = max(worst, abs(val - exact))
    return worst < 1e-10, {"worst_abs_error": worst}


@_criterion("C09", "homotopy invariance of the pairing along regular families")
def _c09(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-0.5, 0.5, 11)
    spreads = []
    fd_res = []
    cob_res = []
    ok = True
    for i in range(5):
        dim = (2, 3, 3, 4, 4)[i]
        kind = "z2" if i == 3 else "trivial"
        t = random_triple(dim, seed=seed + 23 * i, group=kind)
        q = random_odd_element(t, rng)
        q = 0.35 * opnorm(t.Q) * q / max(opnorm(q), 1e-12)
        kato = kato_constants(t, q)
        ok &= kato.achievable_below_one
        fam = linear_family(t, q, interval=(-0.6, 0.6))
        a = random_involution(t, rng)
        tab = sweep_invariant(fam, PairingInput(a=a), grid)
        spreads.append(tab.spread())
        ok &= tab.spread() < 1e-6
        n = 2 if i % 2 == 0 else 0
        mats = tuple(random_even_element(t, rng) for _ in range(n + 1))
        r = jlo_lambda_fd_residual(fam, 0.12, n, mats)
        fd_res.append(r)
        ok &= r < 1e-5
        c = coboundary_relation_residual(fam, 0.12, samples=2, levels=(0, 1, 2), seed=seed + i)
        cob_res.append(c)
        ok &= c < 1e-8
    return ok, {
        "spreads": spreads,
        "fd_vs_L_residuals": fd_res,
        "L_vs_dh_residuals": cob_res,
    }


@_criterion("C10", "pairing independence of the simplex plane")
def _c10(seed):
    betas = [0.5, 1.0, 2.0]
    ok = True
    details = {}
    t2 = exchange_triple()
    tab = beta_independence(t2, PairingInput(a=t2.gamma.copy()), betas)
    details["exchange_gamma_spread"] = tab.spread()
    ok &= tab.spread() < 1e-6
    t3 = zero_mode_triple()
    tab = beta_independence(t3, PairingInput(a=np.eye(3, dtype=complex)), betas)
    details["zero_mode_identity_spread"] = tab.spread()
    ok &= tab.spread() < 1e-6
    ok &= all(abs(complex(r["value"]) - 1.0) < 1e-8 for r in tab.rows)
    tr = random_triple(3, seed=seed + 5, group="trivial")
    a = random_involution(tr, np.random.default_rng(seed + 6))
    tab = beta_independence(tr, PairingInput(a=a), betas)
    details["random_involution_spread"] = tab.spread()
    ok &= tab.spread() < 1e-6
    return ok, details


@_criterion("C11", "smoothing-constant engine: companion integral and lower bound")
def _c11(seed):
    companion = 2.0 * algebraic_singular_integral(lambda u: 1.0, -0.5, -0.5)
    err = abs(companion - 2.0 * math.pi)
    ok = err < 1e-8
    mus = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95]
    cvals = [numeric_c_mu(mu) for mu in mus]
    ok &= all(c >= 2.0 * math.pi - 1e-10 for c in cvals)
    ok &= all(cvals[i + 1] >= cvals[i] - 1e-10 for i in range(len(cvals) - 1))
    return ok, {"companion_abs_error": err, "mus": mus, "c_values": cvals}


@_criterion("C12", "interchange identity for heat-kernel commutators")
def _c12(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(20):
        dim = 3 + (i % 4)
        t = random_triple(dim, seed=seed + 13 * i)
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = float(rng.uniform(0.05, 1.0))
        worst = max(worst, duhamel_commutator(t, b, s))
    return worst < 1e-10, {"worst_residual": worst}


@_criterion("C13", "split structures: validation, cocycle, coupling sweep, guard")
def _c13(seed):
    rng = np.random.default_rng(seed)
    s, gens = build_n2_susy_example(
        levels=((1.0, 0.5), (2.0, 1.0)), taus=(0.7,), thetas=(0.9,)
    )
    rep = validate_split(s)
    ok = rep.passed
    tau = jlo_cochain(s)
    ptau = op_partial(tau)
    worst_cocycle = 0.0
    for n in range(1, 5):
        for _ in range(3):
            mats = tuple(
                zero_momentum_project(s, random_even_element(s, rng))
                for _ in range(n + 1)
            )
            for g in range(len(s.group)):
                worst_cocycle = max(worst_cocycle, abs(ptau(n, mats, g)))
    ok &= worst_cocycle < 1e-8

    def rotation_family(lam):
        return replace(s, Q2=math.cos(lam) * gens["Q2"] + math.sin(lam) * gens["Qt2"])

    inp = PairingInput(a=s.gamma.copy(), g=1)
    tab = coupling_sweep(rotation_family, inp, np.linspace(0.0, 0.8, 9))
    ok &= tab.spread() < 1e-6

    def broken_family(lam):
        return replace(
            s, Q2=(1.0 + lam) * gens["Q2"], group=[np.eye(s.dim, dtype=complex)]
        )

    guard_fired = False
    try:
        coupling_sweep(broken_family, PairingInput(a=s.gamma.copy()), [0.0, 0.3])
    except PNotFixed:
        guard_fired = True
    ok &= guard_fired
    return ok, {
        "validation_passed": rep.passed,
        "worst_cocycle_residual": worst_cocycle,
        "coupling_spread": tab.spread(),
        "guard_fired": guard_fired,
    }


@_criterion("C14", "endpoint grid: zero-regularization row and convergence diagnostic")
def _c14(seed):
    rng = np.random.default_rng(seed)
    t = zero_mode_triple()
    q = random_odd_element(t, rng)
    q = 0.3 * q / max(opnorm(q), 1e-12)
    zz = np.diag([0.5, 1.0, 1.5]).astype(complex)
    fam = linear_family(t, q, interval=(-0.6, 0.6), regularizer=zz)
    a = random_involution(t, rng)
    inp = PairingInput(a=a)
    lg = np.linspace(0.1, 0.5, 3)
    eg = [0.0, 0.2, 0.4, 0.6]
    grid = endpoint_grid(fam, eg, lg, inp)
    sweep = sweep_invariant(fam, inp, lg)
    sweep_vals = {row["lambda"]: complex(row["value"]) for row in sweep.rows}
    worst_row = 0.0
    for row in grid.rows:
        if row["eps"] == 0.0:
            worst_row = max(
                worst_row, abs(complex(row["value"]) - sweep_vals[row["lambda"]])
            )
    ok = worst_row < 1e-10
    # per-lambda gap to the eps = 0 value, nondecreasing in eps
    monotone = True
    gaps = {}
    for lam in lg:
        col = [
            abs(complex(r["value"]) - sweep_vals[lam])
            for r in grid.rows
            if r["lambda"] == lam
        ]
        gaps[f"{lam:.3f}"] = col
        monotone &= all(col[k + 1] >= col[k] - 1e-12 for k in range(len(col) - 1))
    return ok, {
        "worst_eps0_gap": worst_row,
        "monotone_in_eps": monotone,
        "gaps_by_lambda": gaps,
    }


def _run_base(seed: int) -> list[dict]:
    out = []
    for k, cid in enumerate(sorted(CRITERIA)):
        desc, fn = CRITERIA[cid]
        passed, details = fn(seed + 1000 * (k + 1))
        out.append(
            {"id": cid, "description": desc, "passed": bool(passed), "details": details}
        )
    return out


def run_selftest(seed: int = 0) -> dict:
    """Run criteria C01-C14 twice, appending the determinism criterion C15."""
    first = _run_base(seed)
    second = _run_base(seed)
    b1, b2 = dumps_canonical(first), dumps_canonical(second)
    det = b1 == b2
    report = {
        "seed": seed,
        "package_version": __version__,
        "criteria": first
        + [
            {
                "id": "C15",
                "description": "repeated runs with a fixed seed are byte-identical",
                "passed": det,
                "details": {"bytes": len(b1), "identical": det},
            }
        ],
    }
    report["passed"] = all(c["passed"] for c in report["criteria"])
    return report


def format_table(report: dict) -> str:
    lines = []
    for c in report["criteria"]:
        mark = "PASS" if c["passed"] else "FAIL"
        lines.append(f"{c['id']}  {mark}  {c['description']}")
    overall = "PASS" if report["passed"] else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
