"""Compare two checkouts on one perfbench workload by alternating paired runs.

    python tools/paired_bench.py PARENT CHANGE --workload W [--seed S]
        [--pairs N] [--seconds T]

PARENT and CHANGE are roots of two checkouts, each with its own
``perfbench/run.py``.  Each pair runs that script once in each tree, one
after the other (``--trace 0``), and the tree that goes first alternates
from pair to pair, so a drift of the host's speed falls on both sides.
Every run is a fresh process with its own working directory.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change in the median beside the parent's
interquartile range, and in how many pairs the change was better.  Two
verdicts follow.  ``claim`` is "yes" when a gain may be claimed: the change
was better in at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's interquartile range.
``bound`` is "ok" when the change's median is worse than the parent's by
no more than the metric's ``bound`` (a fraction of the parent's median),
else "WORSE".  Throughput and latencies are printed normalized (perfbench's
nominal machine speed) and raw (wall-clock seconds), each with both
verdicts.  Exits 1 when a run fails or reports a failed request, and 2
when any metric's ``bound`` verdict, normalized or raw, is WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the raw figures perfbench prints on the line before its result
RAW_KEYS = ("throughput_rps", "latency_p50_s", "latency_p90_s")


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, as perfbench's and numpy's default."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_tree(tree: Path, args) -> dict:
    """One perfbench run in ``tree``: its metrics, normalized and raw."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"paired_bench: {tree} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"paired_bench: {tree} failed {result['failed']} of "
                 f"{result['attempted']} requests: {info.get('failures')}")
    out = {k: v["value"] for k, v in result["metrics"].items()}
    for key in RAW_KEYS:
        out[f"raw:{key}"] = info["samples"]["raw"][key]
    return out


def summary(values) -> str:
    return (f"{statistics.median(values):.6g} "
            f"[{quantile(values, 0.25):.6g}, {quantile(values, 0.75):.6g}]")


def verdicts(a: list[float], b: list[float], sense: str, bound: float):
    """(wins, change - parent in the median, parent IQR, claim, within bound)
    of the parent's runs ``a`` and the change's runs ``b``, pair by pair."""
    sign = 1.0 if sense == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    delta = statistics.median(b) - statistics.median(a)
    iqr = quantile(a, 0.75) - quantile(a, 0.25)
    claim = 10 * wins >= 9 * len(a) and sign * delta > iqr
    within = -sign * delta <= bound * abs(statistics.median(a))
    return wins, delta, iqr, claim, within


def report(parent: list[dict], change: list[dict], metrics: list[dict]) -> bool:
    """Print the table; True when every ``bound`` verdict is ok."""
    all_within = True
    print(f"{'metric':22s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'change - parent':>16s} {'parent IQR':>11s} {'wins':>6s} claim bound")
    for m in metrics:
        for key in (m["name"], f"raw:{m['name']}"):
            if key not in parent[0]:
                continue
            a = [r[key] for r in parent]
            b = [r[key] for r in change]
            wins, delta, iqr, claim, within = verdicts(a, b, m["better"], m["bound"])
            all_within &= within
            print(f"{key:22s} {summary(a):34s} {summary(b):34s} {delta:16.4g} {iqr:11.4g} "
                  f"{f'{wins}/{len(a)}':>6s} {'yes' if claim else 'no':5s} "
                  f"{'ok' if within else 'WORSE'}")
    return all_within


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = (args.parent.resolve(), args.change.resolve())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = ([], [])
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(run_tree(trees[side], args))
        a, b = runs[0][-1]["throughput_rps"], runs[1][-1]["throughput_rps"]
        print(f"pair {i + 1}/{args.pairs} ({'parent' if order[0] == 0 else 'change'} first): "
              f"throughput_rps {a:.4g} -> {b:.4g}", flush=True)
    return 0 if report(*runs, metrics) else 2


if __name__ == "__main__":
    sys.exit(main())
