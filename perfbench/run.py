#!/usr/bin/env python3
"""Benchmark of heatchern: one client, closed loop, every result gated.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pair-series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # table of all

Workloads (see ``workloads.py`` for the round plans):

- ``pair-series``: ``heatchern pair`` / ``split-pair`` through ``cli.main``
  at dim 2-5; the multiset-walk series route does most of the work.
- ``sweep-quadrature``: ``sweep``, ``endpoint``, ``beta-scan`` and
  ``coupling-sweep`` at dim 12-48; only the Gauss-Hermite route runs.
- ``character-cochains``: library calls (character levels 0-4, cocycle and
  coboundary residuals, Monte-Carlo expectation) on a reused triple pool.

With ``--trace 0`` the run measures set-up (the median import time over
three fresh interpreters, plus the median over five repetitions of input
generation and one warm-up request per class), then cycles through a pool
of about 80 generated requests until ``--seconds`` have passed and at
least 100 have run.  Every time is in seconds at a nominal machine speed
(see ``gauge.py``); the line before the result also gives the raw figures.

With ``--trace 1`` it runs the first round of requests (plus the census
round) repeatedly, each request once untraced and once traced, and reports
per-layer self times, counters, kernel probes and the tracing overhead.  Spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the sample counts and the environment.  Exits non-zero without a
result when the checkout holds no ``src/heatchern``.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread through the environment, before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script
    sys.path.insert(0, str(ROOT))
from perfbench import gauge  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"  # input files while running; span dumps

# A runaway request raises MemoryError instead of exhausting the machine.
ADDRESS_SPACE_CAP = 2 << 30
MIN_REQUESTS = 100  # p90 then has at least 10 samples beyond it
POOL_REQUESTS = 80  # distinct generated requests the loop cycles through
LOOP_HARD_STOP_S = 120.0  # keeps a slow build's run under the 180 s limit
SETUP_REPS = 5  # input generation plus warm-ups, in this process
IMPORT_REPS = 3  # imports of heatchern, each in a fresh interpreter
PROBE_CALLS = {"expm": 5, "eig": 5, "simplex": 20, "gh": 3}
WORKLOAD_NAMES = ("pair-series", "sweep-quadrature", "character-cochains")

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = (
    "serialization.triple_from_json",
    "serialization.dumps_canonical",
    "triples.validate_triple",
    "triples.heat_data",
    "jlo.pairing_series",
    "jlo.pairing_gaussian",
    "jlo.equivariant_index",
    "cochains.cocycle_residual",
    "homotopy.sweep_invariant",
    "homotopy.endpoint_grid",
    "homotopy.beta_independence",
    "homotopy.coboundary_relation_residual",
    "split.split_pairing",
    "split.coupling_sweep",
)


def layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({
        "jlo.pairing_series.level_max": "level",
        "jlo.pairing_series.level_sum": "level",
        **{f"jlo.jlo_component.n{n}_s": "s" for n in range(5)},
        "jlo.jlo_component.calls": "count",
        "jlo.gauss_hermite_transform.overhead_s": "s",
        "jlo.route_gap_max": "1",
        "linalg.expm.d12_s": "s",
        "linalg.expm.d24_s": "s",
        "linalg.expm.d48_s": "s",
        "linalg.eig_hermitian.d48_s": "s",
        "linalg.simplex_exp.n4_s": "s",
        "linalg.simplex_exp.n8_s": "s",
        "expectations.heat_expectation.quadrature_s": "s",
        "expectations.heat_expectation.calls": "count",
        "expectations.mc_gap_sigma_max": "sigma",
        "cochains.cocycle_residual.max": "1",
        "trace.overhead_frac": "frac",
    })
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import heatchern from this checkout's src/; return (package, seconds)."""
    if not (SRC / "heatchern" / "__init__.py").is_file():
        sys.exit(f"perfbench: no heatchern sources under {SRC}")
    sys.path.insert(0, str(SRC))

    def load():
        import heatchern
        import heatchern.cli  # noqa: F401  (not imported by the package itself)
        return heatchern

    heatchern, import_s, _ = gauge.timed(load)
    if Path(heatchern.__file__).resolve().parent != SRC / "heatchern":
        sys.exit(f"perfbench: imported heatchern from {heatchern.__file__}")
    return heatchern, import_s


_IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from perfbench import gauge

def load():
    import heatchern
    import heatchern.cli

print(gauge.timed(load)[1])
"""


def import_seconds() -> list[float]:
    """Normalized import times of heatchern, each in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(ROOT)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return times


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
    }


class Bench:
    """One workload run: set-up, the measured loop or the traced rounds."""

    def __init__(self, hc, args, workdir: Path):
        from perfbench import workloads
        self.hc, self.args, self.workdir, self.w = hc, args, workdir, workloads
        self.attempted = 0
        self.failures: list[str] = []
        self.diags: list[dict] = []

    def attempt(self, req):
        """Run one request; a raise or a gate miss is recorded as a failure."""
        self.attempted += 1
        try:
            out = self.w.execute(self.hc, req)
        except Exception as exc:  # the loop must go on; the failure is counted
            self.failures.append(f"{req.rid}: {type(exc).__name__}: {exc}"[:400])
            return None
        self.diags.append(out.diag)
        return out

    def timed(self, req):
        """(outcome or None, normalized seconds, raw seconds)."""
        return gauge.timed(lambda: self.attempt(req))

    def setup(self, census: bool = False) -> float:
        """Generate inputs and warm up; returns normalized seconds."""
        plan = self.w.WORKLOADS[self.args.workload]
        rounds = -(-POOL_REQUESTS // len(plan))

        def generate():
            self.rounds, self.census = self.w.build(
                self.args.workload, self.args.seed, rounds, census)
            for rnd in self.rounds + [self.census]:
                self.w.materialize(rnd, self.workdir, self.hc)

        _, total, _ = gauge.timed(generate)
        self.warm = {}
        for req in self.rounds[0]:
            if req.cls not in self.warm:
                out, norm, _ = self.timed(req)
                self.warm[req.cls] = (req, out)
                total += norm
        return total

    def repeat_check(self):
        """One byte-identical repeat per request class (C15)."""
        for req, first in self.warm.values():
            again = self.attempt(req)
            if first is not None and again is not None and again.text != first.text:
                self.failures.append(f"{req.rid}: repeat differs from first run")

    def measure(self) -> dict:
        """Cycle through the pool until the deadline and MIN_REQUESTS."""
        reqs = [r for rnd in self.rounds for r in rnd]
        lat, raw = [], []
        ok = 0
        start = time.perf_counter()
        deadline = start + self.args.seconds
        while True:
            now = time.perf_counter()
            if now - start >= LOOP_HARD_STOP_S or (
                    now >= deadline and len(lat) >= MIN_REQUESTS):
                break
            out, norm, secs = self.timed(reqs[len(lat) % len(reqs)])
            ok += out is not None
            lat.append(norm)
            raw.append(secs)
        return {
            "throughput_rps": ok / sum(lat),
            "latency_p50_s": quantile(lat, 0.5),
            "latency_p90_s": quantile(lat, 0.9),
            "requests": len(lat),
            "raw": {"throughput_rps": ok / sum(raw), "latency_p50_s": quantile(raw, 0.5),
                    "latency_p90_s": quantile(raw, 0.9),
                    "wall_s": time.perf_counter() - start},
        }

    def probe(self, req, samples: dict):
        """Kernel probes on the request's own operands (outside any span)."""
        hc = self.hc
        for kind, m in req.probes.items():
            if kind == "expm":
                samples[f"linalg.expm.d{req.dim}_s"].append(
                    per_call(lambda: hc.linalg.expm(m), PROBE_CALLS["expm"]))
            elif kind == "eig" and req.dim == 48:
                samples["linalg.eig_hermitian.d48_s"].append(
                    per_call(lambda: hc.linalg.eig_hermitian(m), PROBE_CALLS["eig"]))
            elif kind.startswith("simplex"):
                samples[f"linalg.simplex_exp.n{len(m) - 1}_s"].append(
                    per_call(lambda: hc.linalg.simplex_exp(m), PROBE_CALLS["simplex"]))
        if req.doc:  # every CLI class runs the Gauss-Hermite route
            # constant integrand: node generation and the loop, no exponential
            samples["jlo.gauss_hermite_transform.overhead_s"].append(per_call(
                lambda: hc.jlo.gauss_hermite_transform(lambda t: 1.0, 64, 1e-10),
                PROBE_CALLS["gh"]))

    def traced(self, req, rec, rep: int):
        """Run ``req`` with spans; scale its spans to normalized seconds."""
        from perfbench import spans
        rec.request = f"{rep}/{req.rid}"
        first = len(rec.spans)
        with spans.patched(rec):
            def run():
                with rec.span("request"):
                    return self.attempt(req)
            out, norm, raw = gauge.timed(run)
        rec.scale(first, norm / raw)
        return out, norm

    def trace(self) -> dict:
        from perfbench import spans
        rec = spans.Recorder()
        probes = defaultdict(list)
        reps = []
        wall = {"plain": 0.0, "traced": 0.0}
        start = time.perf_counter()
        deadline = start + self.args.seconds
        while not reps or (time.perf_counter() < deadline
                           and time.perf_counter() - start < LOOP_HARD_STOP_S):
            rep = len(reps)
            begin, lv = len(rec.spans), len(rec.levels)
            for i, req in enumerate(self.rounds[0]):
                # alternate which goes first, so warm caches favour neither
                if (i + rep) % 2:
                    a, ta = self.traced(req, rec, rep)
                    b, tb, _ = self.timed(req)
                else:
                    b, tb, _ = self.timed(req)
                    a, ta = self.traced(req, rec, rep)
                wall["traced"] += ta
                wall["plain"] += tb
                if a is not None and b is not None and a.text != b.text:
                    self.failures.append(f"{req.rid}: traced output differs")
                self.probe(req, probes)
            for req in self.census:
                if req.cls != "probe":
                    self.traced(req, rec, rep)
                self.probe(req, probes)
            reps.append((begin, len(rec.spans), lv, len(rec.levels)))
        rec.dump(OUT_DIR / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl")
        return self.layer_metrics(rec, reps, probes, wall)

    def layer_metrics(self, rec, reps, probes, wall) -> dict:
        selfs = rec.self_times()
        per_rep = []
        for begin, end, lv0, lv1 in reps:
            tot = defaultdict(float)
            calls = defaultdict(int)
            for s, own in zip(rec.spans[begin:end], selfs[begin:end]):
                tot[s.name] += own
                calls[s.name] += 1
                base = s.name.rsplit(".", 1)[0]
                if base in ("jlo.jlo_component", "expectations.heat_expectation"):
                    calls[base] += 1
            levels = [lvl for _, lvl in rec.levels[lv0:lv1]]
            tot["level_max"] = max(levels, default=0)
            tot["level_sum"] = sum(levels)
            per_rep.append((tot, calls))

        def med(get):
            return statistics.median(get(t, c) for t, c in per_rep)

        m = {}
        for name in SPAN_METRICS:
            m[f"{name}.self_s"] = med(lambda t, c: t[name])
            m[f"{name}.calls"] = med(lambda t, c: c[name])
        m["jlo.pairing_series.level_max"] = med(lambda t, c: t["level_max"])
        m["jlo.pairing_series.level_sum"] = med(lambda t, c: t["level_sum"])
        for n in range(5):
            m[f"jlo.jlo_component.n{n}_s"] = med(lambda t, c: t[f"jlo.jlo_component.n{n}"])
        m["jlo.jlo_component.calls"] = med(lambda t, c: c["jlo.jlo_component"])
        m["expectations.heat_expectation.quadrature_s"] = med(
            lambda t, c: t["expectations.heat_expectation.quadrature"])
        m["expectations.heat_expectation.calls"] = med(
            lambda t, c: c["expectations.heat_expectation"])
        for name, vals in probes.items():
            m[name] = statistics.median(vals)
        m["jlo.route_gap_max"] = max_diag(self.diags, "route_gap")
        m["expectations.mc_gap_sigma_max"] = max_diag(self.diags, "mc_gap_sigma")
        m["cochains.cocycle_residual.max"] = max_diag(self.diags, "cocycle")
        m["trace.overhead_frac"] = wall["traced"] / wall["plain"] - 1.0
        self.samples = {"traced_rounds": len(reps), "spans": len(rec.spans),
                        "round_requests": len(self.rounds[0]),
                        "census_requests": len(self.census)}
        return m


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, as numpy's default."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def per_call(fn, calls: int) -> float:
    """Normalized seconds per call of ``fn``, over ``calls`` calls."""
    def repeat():
        for _ in range(calls):
            fn()

    return gauge.timed(repeat)[1] / calls


def max_diag(diags, key: str) -> float:
    return max((d[key] for d in diags if key in d), default=0.0)


def cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_one(args) -> dict:
    hc, import_s = load_library()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(hc, args, workdir)
        reps = 1 if args.trace else SETUP_REPS  # a traced run reports no set-up
        setups = [bench.setup(census=bool(args.trace)) for _ in range(reps)]
        if args.trace:
            metrics = bench.trace()
            units = layer_units()
            samples = bench.samples
        else:
            loop = bench.measure()
            bench.repeat_check()
            imports = import_seconds()
            metrics = {
                "setup_s": statistics.median(imports) + statistics.median(setups),
                "throughput_rps": loop["throughput_rps"],
                "latency_p50_s": loop["latency_p50_s"],
                "latency_p90_s": loop["latency_p90_s"],
                "success_frac": 1.0 - len(bench.failures) / bench.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = E2E_UNITS
            samples = {"requests": loop["requests"], "setup_reps": SETUP_REPS,
                       "import_reps_s": imports,
                       "pool_requests": sum(len(r) for r in bench.rounds),
                       "raw": loop["raw"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples, "import_s": import_s,
        "setup_reps_s": setups, "environment": environment(),
        "failures": bench.failures[:10],
    }))
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other; a table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {name} exited {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            print(f"{name:20s} {key:45s} {val['value']:.6g} {val['unit']}")
            total["metrics"][f"{name}/{key}"] = val
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        cap_address_space()
        result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
