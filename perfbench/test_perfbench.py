"""Tests of the benchmark itself: inputs, gates and the metrics it emits."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import heatchern
import heatchern.cli  # noqa: F401
from perfbench import gen, run, spans, workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _snapshot(workload: str, seed: int) -> list:
    rounds, census = workloads.build(workload, seed, rounds=1, census=True)
    out = []
    for req in rounds[0] + census:
        arrays = [req.cochain.get("q")] + [m for ms in req.cochain.get("tuples", []) for m in ms]
        arrays += list(req.probes.values())
        out.append((req.rid, req.argv, req.doc,
                    [a.tobytes() for a in arrays if a is not None]))
    return out


def test_declared_workloads_match_the_code():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = _snapshot(workload, seed=7)
    assert first == _snapshot(workload, seed=7)
    assert first != _snapshot(workload, seed=8)


def test_admissibility_check_rejects_a_broken_involution():
    rng = np.random.default_rng(0)
    t, a = gen.paired_triple(rng, 3)
    gen.check_involution(a, t["gamma"], t["group"])
    with pytest.raises(gen.InadmissibleInput):
        gen.check_involution(a + 1e-6, t["gamma"], t["group"])


def _first(workload: str, cls: str, tmp_path):
    rounds, _ = workloads.build(workload, seed=3, rounds=1)
    req = next(r for r in rounds[0] if r.cls == cls)
    workloads.materialize([req], tmp_path, heatchern)
    return req


def test_gate_rejects_perturbed_pairing(tmp_path):
    req = _first("pair-series", "pair", tmp_path)
    out = workloads.execute(heatchern, req)
    doc = json.loads(out.text)
    doc["series_value"][0] += 1e-6
    with pytest.raises(workloads.GateFailure):
        workloads.check_cli_output("pair", json.dumps(doc))
    with pytest.raises(workloads.GateFailure):
        workloads.check_cli_output("pair", out.text[:-5])


def test_gate_rejects_perturbed_sweep(tmp_path):
    req = _first("sweep-quadrature", "sweep", tmp_path)
    doc = json.loads(workloads.execute(heatchern, req).text)
    doc["table"]["rows"][1]["value"][1] += 1e-5
    with pytest.raises(workloads.GateFailure):
        workloads.check_cli_output("sweep", json.dumps(doc))


def test_gate_rejects_perturbed_cochains(tmp_path):
    req = _first("character-cochains", "cochains", tmp_path)
    res = workloads.cochain_values(heatchern, req)
    workloads.check_cochain_values(res)
    for key, bad in (("cocycle_residual", 1e-6), ("relation_residual", 1e-6)):
        with pytest.raises(workloads.GateFailure):
            workloads.check_cochain_values({**res, key: bad})
    draw = res["mc"][-1]
    far = {**draw, "gap": 2 * draw["three_se"]}
    with pytest.raises(workloads.GateFailure):
        workloads.check_cochain_values({**res, "mc": [far]})


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    own = rec.self_times()
    assert own[1] == pytest.approx(inner.end - inner.start)
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "POOL_REQUESTS", 1)
    args = argparse.Namespace(workload="character-cochains", seed=0, seconds=0.0, trace=trace)
    res = run.run_one(args)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
