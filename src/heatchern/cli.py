"""Command-line interface.

Subcommands load operator data from JSON, run one computation, and write
a JSON (or CSV) result with a provenance block.  Exit codes: 0 success,
1 validation failure, 2 numerical non-convergence, a request over the
block-order budget, out of memory or an arithmetic error such as an
overflow, 3 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BadExponent,
    ComplexityCap,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    Overflow,
    PairingInputInvalid,
    PNotFixed,
    ValidationFailure,
    ZeroMomentumViolation,
)
from .expectations import heat_expectation
from .homotopy import (
    beta_independence,
    endpoint_grid,
    linear_family,
    sweep_invariant,
)
from .jlo import PairingInput, equivariant_index, jlo_component, pairing
from .selftest import format_table, run_selftest
from .serialization import (
    _number,
    csv_text,
    dumps_canonical,
    matrix_from_json,
    split_from_json,
    triple_from_json,
)
from .split import (
    SplitTriple,
    coupling_sweep,
    require_valid_split,
    split_pairing,
    validate_split,
)
from .triples import _check_shape, require_valid, validate_triple

_VALIDATION_ERRORS = (ValidationFailure, PairingInputInvalid, NotHermitian,
                      PNotFixed, ZeroMomentumViolation)
_NUMERIC_ERRORS = (NoConvergence, Overflow, ComplexityCap, MemoryError, ArithmeticError)


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
        # b - a is finite only if both ends are, and then so is every point
        if not np.isfinite(b - a):
            raise DimensionMismatch(f"grid {text!r} is not finite")
        grid = np.linspace(a, b, n)
    except ValueError as exc:
        raise DimensionMismatch(f"cannot parse grid {text!r}, expected a:b:n") from exc
    if len(grid) == 0:
        raise DimensionMismatch(f"grid {text!r} has no points")
    if not np.all(np.diff(grid) > 0):
        raise DimensionMismatch(f"grid {text!r} must be strictly increasing")
    return grid


def _parse_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x]
    if not values:
        raise DimensionMismatch(f"list {text!r} has no values")
    if not np.all(np.isfinite(values)):
        raise DimensionMismatch(f"list {text!r} has non-finite values")
    return values


def _load_json(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise DimensionMismatch(f"input JSON must be an object, got {type(doc).__name__}")
    return doc


def _load_triple(args):
    """The input document and the validated triple it holds."""
    doc = _load_json(args.input)
    return doc, require_valid(triple_from_json(doc.get("triple", doc)))


def _provenance(args) -> dict:
    return {
        "package_version": __version__,
        "seed": args.seed,
        "tol": args.tol,
        "quad_nodes": args.quad_nodes,
        "max_level": args.max_level,
    }


def _emit(args, payload: dict):
    text = dumps_canonical(payload)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _emit_table(args, tab):
    """Write a sweep table as CSV, or as the command's JSON payload."""
    if args.format == "json":
        _emit(
            args,
            {
                "command": args.command,
                "provenance": _provenance(args),
                "table": tab.to_jsonable(),
            },
        )
        return
    text = csv_text(tab.to_csv_rows())
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")


def _emit_pairing(args, res):
    """Write a pairing result; ``pair`` also reports the idempotent form."""
    payload = {
        "command": args.command,
        "provenance": _provenance(args),
        "value": res.value,
        "series_value": res.series_value,
        "quadrature_value": res.quadrature_value,
        "truncation_level": res.truncation_level,
        "tail_bound": res.tail_bound,
    }
    if args.command == "pair":
        payload["connes_value"] = res.connes_value
    _emit(args, payload)


def _pairing_input(doc: dict, g: int) -> PairingInput:
    if "a" not in doc:
        raise DimensionMismatch("input JSON is missing key 'a'")
    spec = doc["a"]
    if isinstance(spec, dict):
        return PairingInput(
            a=matrix_from_json(spec["matrix"]),
            m=_number(int, spec.get("m", 1), "'a' block size m"),
            g=g,
        )
    return PairingInput(a=matrix_from_json(spec), m=1, g=g)


def _cmd_validate(args):
    doc = _load_json(args.input)
    if "Q1" in doc or "split" in doc:
        s = split_from_json(doc.get("split", doc))
        rep = validate_split(s)
    else:
        rep = validate_triple(triple_from_json(doc.get("triple", doc)))
    payload = {
        "command": "validate",
        "provenance": _provenance(args),
        "passed": rep.passed,
        "checks": [
            {"name": c.name, "residual": c.residual, "tol": c.tol, "passed": c.passed}
            for c in rep.checks
        ],
    }
    _emit(args, payload)
    return 0 if rep.passed else 1


def _cmd_index(args):
    _, t = _load_triple(args)
    values = [equivariant_index(t, g) for g in range(len(t.group))]
    _emit(
        args,
        {
            "command": "index",
            "provenance": _provenance(args),
            "values": values,
        },
    )
    return 0


def _cmd_pair(args):
    doc, t = _load_triple(args)
    inp = _pairing_input(doc, args.group_index)
    res = pairing(
        t, inp, quad_nodes=args.quad_nodes, max_level=args.max_level, tol=args.tol
    )
    _emit_pairing(args, res)
    return 0


def _cmd_jlo(args):
    doc, t = _load_triple(args)
    if "tuple" not in doc:
        raise DimensionMismatch("input JSON is missing key 'tuple'")
    if not isinstance(doc["tuple"], list) or not doc["tuple"]:
        raise DimensionMismatch("'tuple' must be a nonempty list of matrices")
    mats = [matrix_from_json(m) for m in doc["tuple"]]
    n = len(mats) - 1
    if args.method == "exact":
        val = jlo_component(t, n, mats, args.group_index)
        err = 0.0
    else:
        verts = [mats[0]] + [t.derive(m) for m in mats[1:]]
        ev = heat_expectation(
            t, verts, args.group_index, method="quadrature", seed=args.seed
        )
        val, err = ev.value, ev.estimated_error
    _emit(
        args,
        {
            "command": "jlo",
            "provenance": _provenance(args),
            "level": n,
            "method": args.method,
            "value": val,
            "estimated_error": err,
        },
    )
    return 0


def _cmd_sweep(args):
    doc, t = _load_triple(args)
    if "q" not in doc:
        raise DimensionMismatch("input JSON is missing key 'q' (linear family)")
    q = matrix_from_json(doc["q"])
    fam = linear_family(t, q)
    inp = _pairing_input(doc, args.group_index)
    grid = _parse_grid(args.lambda_grid)
    tab = sweep_invariant(fam, inp, grid, quad_nodes=args.quad_nodes, tol=args.tol)
    _emit_table(args, tab)
    return 0


def _cmd_beta_scan(args):
    doc, t = _load_triple(args)
    inp = _pairing_input(doc, args.group_index)
    betas = _parse_list(args.beta_list)
    tab = beta_independence(t, inp, betas, quad_nodes=args.quad_nodes, tol=args.tol)
    _emit_table(args, tab)
    return 0


def _cmd_endpoint(args):
    doc, t = _load_triple(args)
    for key in ("q", "regularizer"):
        if key not in doc:
            raise DimensionMismatch(f"input JSON is missing key {key!r}")
    fam = linear_family(
        t, matrix_from_json(doc["q"]), regularizer=matrix_from_json(doc["regularizer"])
    )
    inp = _pairing_input(doc, args.group_index)
    tab = endpoint_grid(
        fam,
        _parse_grid(args.eps_grid),
        _parse_grid(args.lambda_grid),
        inp,
        quad_nodes=args.quad_nodes,
        tol=args.tol,
    )
    _emit_table(args, tab)
    return 0


def _cmd_split_pair(args):
    doc = _load_json(args.input)
    s = require_valid_split(split_from_json(doc.get("split", doc)))
    inp = _pairing_input(doc, args.group_index)
    res = split_pairing(
        s, inp, quad_nodes=args.quad_nodes, max_level=args.max_level, tol=args.tol
    )
    _emit_pairing(args, res)
    return 0


def _cmd_coupling_sweep(args):
    doc = _load_json(args.input)
    s = split_from_json(doc.get("split", doc))
    if "q2_tilde" not in doc:
        raise DimensionMismatch("input JSON is missing key 'q2_tilde'")
    qt2 = _check_shape("q2_tilde", matrix_from_json(doc["q2_tilde"]), s.dim)

    def family(lam: float) -> SplitTriple:
        return replace(s, Q2=np.cos(lam) * s.Q2 + np.sin(lam) * qt2)

    inp = _pairing_input(doc, args.group_index)
    tab = coupling_sweep(
        family,
        inp,
        _parse_grid(args.lambda_grid),
        mode=args.mode,
        quad_nodes=args.quad_nodes,
        tol=args.tol,
    )
    _emit_table(args, tab)
    return 0


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed)
    payload = {
        "command": "selftest",
        "provenance": _provenance(args),
        "report": report,
    }
    if args.output:
        Path(args.output).write_text(dumps_canonical(payload) + "\n")
    print(format_table(report))
    return 0 if report["passed"] else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "index": _cmd_index,
    "pair": _cmd_pair,
    "jlo": _cmd_jlo,
    "sweep": _cmd_sweep,
    "beta-scan": _cmd_beta_scan,
    "endpoint": _cmd_endpoint,
    "split-pair": _cmd_split_pair,
    "coupling-sweep": _cmd_coupling_sweep,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heatchern",
        description="heat-kernel characters, pairings, and invariance sweeps",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--input", help="input JSON path")
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--quad-nodes", type=int, default=64, dest="quad_nodes")
    p.add_argument("--max-level", type=int, default=32, dest="max_level")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--group-index", type=int, default=0, dest="group_index")
    p.add_argument("--lambda-grid", default="0:1:11", dest="lambda_grid")
    p.add_argument("--eps-grid", default="0:0.5:6", dest="eps_grid")
    p.add_argument("--beta-list", default="0.5,1,2", dest="beta_list")
    p.add_argument("--method", choices=["exact", "quadrature"], default="exact")
    p.add_argument("--mode", choices=["coupling", "q1_commuting"], default="coupling")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    needs_input = args.command != "selftest"
    try:
        if needs_input:
            if not args.input:
                raise FileNotFoundError("--input is required for this command")
            if not Path(args.input).exists():
                raise FileNotFoundError(f"input file {args.input!r} not found")
        return cmd(args)
    except _VALIDATION_ERRORS as exc:
        _print_error(args, exc)
        return 1
    except _NUMERIC_ERRORS as exc:
        _print_error(args, exc)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, DimensionMismatch, ValueError,
            BadExponent) as exc:
        _print_error(args, exc)
        return 3


def _print_error(args, exc):
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    text = dumps_canonical(obj)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError:
            pass
    print(text, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
