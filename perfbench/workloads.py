"""The benchmark's workloads: request classes, round plans and gates.

A workload is a fixed *round*: an ordered list of request specs (class,
dim, options).  ``build`` instantiates rounds with seeded inputs; the timed
loop cycles through them.  Fixing the class mix per round, and the da
scale per input (see ``gen``), keeps a run's cost the same across seeds.

Every request returns its output text and diagnostics, or raises.  The
gates use the acceptance suite's own tolerances; a miss raises
``GateFailure`` and the request counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gen

# Gate tolerances, as in the acceptance criteria C02, C06, C07 and C09-C13.
SERIES_VS_QUADRATURE = 1e-8  # C07
SPREAD = 1e-6  # C09 sweep, C10 beta, C13 coupling
COCYCLE = 1e-8  # C06
ODD_COMPONENT = 1e-12  # C06
COBOUNDARY_RELATION = 1e-8  # C09: L - (b + B) h
MC_SLACK = 1e-15  # C02: |MC - exact| <= 3 standard errors + 1e-15

MC_SAMPLES = 20_000
LAMBDA_COBOUNDARY = 0.12


class GateFailure(Exception):
    """An output that misses its correctness gate."""


@dataclass
class Request:
    """One request: a CLI call on a JSON file, or a library call."""

    rid: str
    cls: str
    dim: int
    argv: list = field(default_factory=list)
    doc: str = ""  # CLI input JSON
    path: str = ""
    cochain: dict = field(default_factory=dict)  # library-call operands
    probes: dict = field(default_factory=dict)  # linalg probe operands


@dataclass
class Outcome:
    text: str
    diag: dict


# -- round plans -------------------------------------------------------------
# (class, dim, options).  For split classes ``dim`` is 4 * Clifford blocks.

_D2, _D3, _D4 = ("pair", 2, {}), ("pair", 3, {}), ("pair", 4, {})
_Z2 = {"group": "z2", "g": 1}

# 35% dim 2 (with the blocked input), 30% dim 3, 30% dim 4 (with the split
# model), 5% dim 5: p50 falls inside the dim-3 band, p90 inside the dim-4
# band, never on a boundary between two bands.
PAIR_SERIES = [
    _D2, _D3, _D4, _D2, _D3, ("pair-blocked", 2, {}), _D4, _D3, _D2,
    ("pair", 5, {}), _D2, _D3, _D4, _D2, ("split-pair", 4, {"g": 1}), _D3,
    _D4, ("pair", 2, _Z2), ("pair", 3, _Z2), ("pair", 4, _Z2),
]

_S12, _B12 = ("sweep", 12, {}), ("beta-scan", 12, {})
_E12, _C12 = ("endpoint", 12, {}), ("coupling-sweep", 12, {})

# Mostly dim 12-32 with one dim-48 sweep per round; two-point grids keep a
# round near 2 s, so each of 100 pool requests runs three times in a run.
SWEEP_QUADRATURE = [
    _S12, _B12, _E12, _C12, ("sweep", 24, {}), _S12, ("beta-scan", 16, {}),
    ("coupling-sweep", 16, {}), _B12, ("sweep", 32, {}), _E12,
    ("beta-scan", 24, _Z2), _C12, ("sweep", 16, _Z2), _B12,
    ("endpoint", 16, {}), ("coupling-sweep", 24, {}), _S12,
    ("beta-scan", 32, {}), ("sweep", 48, {}),
]

# A pool of four triples (dims 4, 5, 6, 8) that requests reuse: 20% dim 4,
# 40% dim 5, 20% dim 6, 20% dim 8, so p50 and p90 fall inside a band.
_POOL_DIMS = (4, 5, 6, 8)
CHARACTER_COCHAINS = [("cochains", _POOL_DIMS[k], {"pool": k})
                      for k in (0, 1, 2, 3, 1, 0, 1, 2, 3, 1)]

WORKLOADS = {
    "pair-series": PAIR_SERIES,
    "sweep-quadrature": SWEEP_QUADRATURE,
    "character-cochains": CHARACTER_COCHAINS,
}

# One smallest request of every class of every workload, plus the probe
# operands of every size.  A traced round carries it, so every layer has
# spans on every workload.
CENSUS = [
    ("pair", 2, {}), ("pair-blocked", 2, {}), ("split-pair", 4, {"g": 1}),
    ("sweep", 12, {}), ("endpoint", 12, {}), ("beta-scan", 12, {}),
    ("coupling-sweep", 12, {}), ("cochains", 4, {"pool": 0}),
    ("probe", 24, {}), ("probe", 48, {}),
]

GRIDS = {
    "sweep": ["--lambda-grid=-0.3:0.3:2"],
    "endpoint": ["--eps-grid=0:0.4:2", "--lambda-grid=-0.2:0.2:2"],
    "beta-scan": ["--beta-list=0.5,2"],
    "coupling-sweep": ["--lambda-grid=0:0.8:2"],
}

PROBE_DIMS = (12, 24, 48)


# -- building requests -------------------------------------------------------


def _probe_operands(q: np.ndarray, gamma: np.ndarray, a: np.ndarray, m: int) -> dict:
    """-Q^2 + i t da at t = 1 (one Gauss-Hermite integrand) and Q^2."""
    qb = np.kron(np.eye(m), q)
    gb = np.kron(np.eye(m), gamma)
    da = gen.derivative(qb, gb, a)
    h = qb @ qb
    return {"expm": -h + 1j * da, "eig": h}


def _cli_request(rng, rid: str, cls: str, dim: int, opts: dict) -> Request:
    argv = [cls.replace("-blocked", "")]
    group = opts.get("group", "trivial")
    if cls in ("split-pair", "coupling-sweep"):
        s = gen.split_triple(rng, dim // 4)
        doc = gen.split_json(s)
        doc["a"] = gen.matrix_json(s["a"])
        if cls == "coupling-sweep":
            doc["q2_tilde"] = gen.matrix_json(s["Q2t"])
        q1, a, m = s["Q1"], s["a"], 1
        probes = {"expm": -(q1 @ q1 + s["Q2"] @ s["Q2"]) / 2.0 + 1j * (q1 @ a - a @ q1)}
    else:
        m = 2 if cls == "pair-blocked" else 1
        t, a = gen.paired_triple(rng, dim, group, m, opts.get("g", 0))
        doc = gen.triple_json(t)
        doc["a"] = {"m": m, "matrix": gen.matrix_json(a)} if m > 1 else gen.matrix_json(a)
        if cls in ("sweep", "endpoint"):
            doc["q"] = gen.matrix_json(gen.odd_perturbation(rng, t))
        if cls == "endpoint":
            doc["regularizer"] = gen.matrix_json(gen.regularizer(rng, t))
        probes = _probe_operands(t["Q"], t["gamma"], a, m)
    argv += GRIDS.get(cls, [])
    if "g" in opts:
        argv.append(f"--group-index={opts['g']}")
    big = dim * m
    return Request(
        rid=rid, cls=cls, dim=big, argv=argv, doc=gen.dumps(doc),
        probes={k: v for k, v in probes.items() if big in PROBE_DIMS},
    )


def _even_unit(rng, gamma: np.ndarray) -> np.ndarray:
    raw = gen._cgauss(rng, gamma.shape[0])
    e = (raw + gamma @ raw @ gamma) / 2.0
    return e / gen.opnorm(e)


def _cochain_request(rng, rid: str, dim: int, pool: dict) -> Request:
    t = pool["doc"]
    tuples = [[_even_unit(rng, t["gamma"]) for _ in range(n + 1)] for n in range(5)]
    lam = np.linalg.eigvalsh(t["Q"] @ t["Q"])
    pts = lam[rng.integers(0, dim, size=9)]
    return Request(
        rid=rid, cls="cochains", dim=dim,
        cochain={
            "pool": pool,
            "tuples": tuples,
            "q": gen.odd_perturbation(rng, t),
            "seed": int(rng.integers(0, 2**31)),
        },
        probes={"simplex4": pts[:5], "simplex8": pts},
    )


def _pool_triple(rng, dim: int) -> dict:
    t = gen.triple(rng, dim)
    gen.check_triple(t)
    return {"doc": t, "obj": None}


def build(workload: str, seed: int, rounds: int, census: bool = False):
    """Seeded rounds of requests (and the census round when asked).

    Returns (rounds, census_round).  Library objects for the cochain pool
    are attached by ``materialize``; the inputs themselves are plain
    arrays and JSON text, identical for identical seeds.
    """
    rng = np.random.default_rng([seed, 0])
    plan = WORKLOADS[workload]
    pools = {}
    if workload == "character-cochains":
        for cls, dim, opts in plan:
            if opts["pool"] not in pools:
                pools[opts["pool"]] = _pool_triple(rng, dim)
    out = []
    for r in range(rounds):
        reqs = []
        for i, (cls, dim, opts) in enumerate(plan):
            rid = f"{r}.{i}.{cls}.d{dim}"
            if cls == "cochains":
                reqs.append(_cochain_request(rng, rid, dim, pools[opts["pool"]]))
            else:
                reqs.append(_cli_request(rng, rid, cls, dim, opts))
        out.append(reqs)
    extra = []
    if census:
        crng = np.random.default_rng([seed, 1])
        cpool = _pool_triple(crng, 4)
        for i, (cls, dim, opts) in enumerate(CENSUS):
            rid = f"census.{i}.{cls}.d{dim}"
            if cls == "cochains":
                extra.append(_cochain_request(crng, rid, dim, cpool))
            elif cls == "probe":
                t, a = gen.paired_triple(crng, dim)
                extra.append(Request(rid=rid, cls=cls, dim=dim,
                                     probes=_probe_operands(t["Q"], t["gamma"], a, 1)))
            else:
                extra.append(_cli_request(crng, rid, cls, dim, opts))
    return out, extra


def materialize(requests, workdir: Path, hc):
    """Write CLI inputs to ``workdir`` and build pool triples in ``hc``."""
    for req in requests:
        if req.doc:
            req.path = str(workdir / f"{req.rid}.json")
            Path(req.path).write_text(req.doc)
        elif req.cochain and req.cochain["pool"]["obj"] is None:
            d = req.cochain["pool"]["doc"]
            req.cochain["pool"]["obj"] = hc.triples.SpectralTriple(
                dim=d["dim"], Q=d["Q"], gamma=d["gamma"], group=d["group"])


# -- executing and gating ----------------------------------------------------


def _spread(values) -> float:
    v = [complex(*x) for x in values]
    return max((abs(a - b) for i, a in enumerate(v) for b in v[i + 1:]), default=0.0)


def check_cli_output(cls: str, text: str) -> dict:
    """Gate one CLI payload; return its diagnostics."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GateFailure(f"invalid JSON: {exc}") from exc
    if cls in ("pair", "pair-blocked", "split-pair"):
        vals = [out["value"], out["series_value"], out["quadrature_value"]]
        if not all(math.isfinite(x) for v in vals for x in v):
            raise GateFailure("non-finite pairing")
        gap = abs(complex(*out["series_value"]) - complex(*out["quadrature_value"]))
        if not gap < SERIES_VS_QUADRATURE:
            raise GateFailure(f"|series - quadrature| = {gap:.3e}")
        return {"route_gap": gap, "level": int(out["truncation_level"])}
    rows = out["table"]["rows"]
    if cls == "endpoint":
        rows = [r for r in rows if r["eps"] == 0.0]
    if cls == "sweep" and not all(r["validated"] for r in rows):
        raise GateFailure("sweep row not validated")
    spread = _spread([r["value"] for r in rows])
    if not spread < SPREAD:
        raise GateFailure(f"{cls} spread {spread:.3e}")
    return {"spread": spread}


def run_cli(hc, req: Request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hc.cli.main(req.argv[:1] + ["--input", req.path] + req.argv[1:])
    if code != 0:
        raise GateFailure(f"exit code {code}: {err.getvalue().strip()[:300]}")
    text = out.getvalue()
    return Outcome(text, check_cli_output(req.cls, text))


def _mc_draw(hc, t, verts, seed: int, exact: complex) -> dict:
    ev = hc.expectations.heat_expectation(
        t, verts, method="quadrature", samples=MC_SAMPLES, seed=seed)
    return {"value": [ev.value.real, ev.value.imag], "three_se": ev.estimated_error,
            "gap": abs(ev.value - exact)}


def cochain_values(hc, req: Request) -> dict:
    """The library calls of one character-cochains request.

    The Monte-Carlo route estimates tau_2.  A draw that misses 3 standard
    errors is confirmed by one more draw with the next seed: a single draw
    misses by chance about once in 300 (4 of 1200 measured at 20k
    samples), which over a run's distinct draws would fail correct code.
    """
    c = req.cochain
    t = c["pool"]["obj"]
    tau = [hc.jlo.jlo_component(t, n, c["tuples"][n]) for n in range(5)]
    cocycle = hc.cochains.cocycle_residual(
        hc.jlo.jlo_cochain(t), t, samples=1, levels=(1, 2, 3), seed=c["seed"])
    fam = hc.homotopy.linear_family(t, c["q"], interval=(-0.6, 0.6))
    relation = hc.homotopy.coboundary_relation_residual(
        fam, LAMBDA_COBOUNDARY, samples=1, levels=(0, 1), seed=c["seed"])
    mats = c["tuples"][2]
    verts = [mats[0]] + [hc.triples.derivative(t, m) for m in mats[1:]]
    draws = [_mc_draw(hc, t, verts, c["seed"], tau[2])]
    if not _mc_within(draws[0]):
        draws.append(_mc_draw(hc, t, verts, c["seed"] + 1, tau[2]))
    return {
        "tau": [[v.real, v.imag] for v in tau],
        "cocycle_residual": cocycle,
        "relation_residual": relation,
        "mc": draws,
    }


def _mc_within(draw: dict) -> bool:
    return draw["gap"] <= draw["three_se"] + MC_SLACK


def check_cochain_values(res: dict) -> dict:
    tau = [complex(*v) for v in res["tau"]]
    if not all(math.isfinite(abs(v)) for v in tau):
        raise GateFailure("non-finite character value")
    odd = max(abs(tau[1]), abs(tau[3]))
    if not odd < ODD_COMPONENT:
        raise GateFailure(f"odd component {odd:.3e}")
    if not res["cocycle_residual"] < COCYCLE:
        raise GateFailure(f"cocycle residual {res['cocycle_residual']:.3e}")
    if not res["relation_residual"] < COBOUNDARY_RELATION:
        raise GateFailure(f"L - (b+B)h residual {res['relation_residual']:.3e}")
    last = res["mc"][-1]
    if not _mc_within(last):
        raise GateFailure(
            f"Monte-Carlo gap {last['gap']:.3e} > 3 SE {last['three_se']:.3e}")
    first = res["mc"][0]
    return {
        "cocycle": res["cocycle_residual"],
        "mc_gap_sigma": 3.0 * first["gap"] / first["three_se"] if first["three_se"] > 0 else 0.0,
        "mc_redraws": len(res["mc"]) - 1,
    }


def run_cochains(hc, req: Request) -> Outcome:
    res = cochain_values(hc, req)
    return Outcome(gen.dumps(res), check_cochain_values(res))


def execute(hc, req: Request) -> Outcome:
    if req.cls == "cochains":
        return run_cochains(hc, req)
    return run_cli(hc, req)
