"""Command-line interface.

Each subcommand loads operator data from JSON, runs one computation and
returns its result: a payload, a sweep table, or a payload with an exit
code.  ``main`` writes every result the same way, as one JSON object with
the command and a provenance block in front (a table under ``--format
csv`` as CSV), to standard output or to ``--output``; ``selftest`` prints
its table and writes the JSON report only to ``--output``.  Exit codes:
0 success, 1 validation failure, 2 numerical non-convergence (a pairing
whose tolerance needs more Gauss-Hermite nodes than the cap, or a rule
numpy cannot give finite, is refused before any exponential), a request
over the block-order budget, a grid of more than that many points
(checked before the grid is allocated), out of memory or an arithmetic
error such as an overflow (a generator H with entries past the float
range included), 3 a usage error, a bad ``--tol`` or ``--max-level``
(checked on every command, before any input is read), or an I/O or
schema error.  Every failure writes one JSON error object to standard
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
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
from .expectations import expectation_value, heat_expectation
from .homotopy import (
    SweepTable,
    _check_grid_points,
    beta_independence,
    endpoint_grid,
    linear_family,
    sweep_invariant,
)
from .jlo import (
    PairingInput,
    _check_max_level,
    _check_tol,
    _vertices,
    equivariant_index,
    pairing,
)
from .selftest import format_table, run_selftest
from .serialization import (
    _number,
    _required,
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
    """The n points a:b:n; n over the budget raises ComplexityCap before ``linspace``."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
        # b - a is finite only if both ends are, and then so is every point
        if not np.isfinite(b - a):
            raise DimensionMismatch(f"grid {text!r} is not finite")
        _check_grid_points(f"grid {text!r}", n)
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
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise DimensionMismatch("input JSON is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DimensionMismatch(f"input JSON must be an object, got {type(doc).__name__}")
    return doc


def _load_triple(args):
    """The input document and the validated triple it holds."""
    doc = _load_json(args.input)
    return doc, require_valid(triple_from_json(doc.get("triple", doc)))


def _split(doc: dict) -> SplitTriple:
    """The split triple an input document holds, not yet validated."""
    return split_from_json(doc.get("split", doc))


def _provenance(args) -> dict:
    return {
        "package_version": __version__,
        "seed": args.seed,
        "tol": args.tol,
        "max_level": args.max_level,
    }


def _write(args, text: str):
    """Write ``text`` to ``--output``, or to standard output."""
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")


def _emit(args, result) -> int:
    """Write a command's result and return its exit code.

    ``result`` is a payload dict, a ``SweepTable`` or ``(payload, code)``.
    A table under ``--format csv`` is written as CSV; everything else is
    one JSON object with the command and its provenance in front.
    """
    payload, code = result if isinstance(result, tuple) else (result, 0)
    if isinstance(payload, SweepTable):
        if args.format == "csv":
            _write(args, csv_text(payload.to_csv_rows()))
            return code
        payload = {"table": payload.to_jsonable()}
    envelope = {"command": args.command, "provenance": _provenance(args)}
    text = dumps_canonical({**envelope, **payload}) + "\n"
    if args.output or args.command != "selftest":
        _write(args, text)
    if args.command == "selftest":  # its report goes to --output only
        print(format_table(payload["report"]))
    return code


def _pairing_input(doc: dict, g: int) -> PairingInput:
    _required(doc, "a")
    spec = doc["a"]
    if isinstance(spec, dict):
        _required(spec, "matrix", what="'a'")
        return PairingInput(
            a=matrix_from_json(spec["matrix"]),
            m=_number(int, spec.get("m", 1), "'a' block size m"),
            g=g,
        )
    return PairingInput(a=matrix_from_json(spec), m=1, g=g)


def _cmd_validate(args):
    doc = _load_json(args.input)
    if "Q1" in doc or "split" in doc:
        rep = validate_split(_split(doc))
    else:
        rep = validate_triple(triple_from_json(doc.get("triple", doc)))
    checks = [
        {"name": c.name, "residual": c.residual, "tol": c.tol, "passed": c.passed}
        for c in rep.checks
    ]
    return {"passed": rep.passed, "checks": checks}, 0 if rep.passed else 1


def _cmd_index(args):
    _, t = _load_triple(args)
    return {"values": [equivariant_index(t, g) for g in range(len(t.group))]}


def _cmd_pair(args):
    doc, t = _load_triple(args)
    inp = _pairing_input(doc, args.group_index)
    return asdict(pairing(t, inp, max_level=args.max_level, tol=args.tol))


def _cmd_jlo(args):
    doc, t = _load_triple(args)
    _required(doc, "tuple")
    if not isinstance(doc["tuple"], list) or not doc["tuple"]:
        raise DimensionMismatch("'tuple' must be a nonempty list of matrices")
    mats = [matrix_from_json(m) for m in doc["tuple"]]
    verts = _vertices(t, mats)
    if args.method == "exact":
        val, err = expectation_value(t, verts, args.group_index), 0.0
    else:
        ev = heat_expectation(t, verts, args.group_index, method="quadrature", seed=args.seed)
        val, err = ev.value, ev.estimated_error
    return {"level": len(mats) - 1, "method": args.method, "value": val,
            "estimated_error": err}


def _cmd_sweep(args):
    doc, t = _load_triple(args)
    _required(doc, "q", note=" (linear family)")
    fam = linear_family(t, matrix_from_json(doc["q"]))
    inp = _pairing_input(doc, args.group_index)
    grid = _parse_grid(args.lambda_grid)
    return sweep_invariant(fam, inp, grid, tol=args.tol)


def _cmd_beta_scan(args):
    doc, t = _load_triple(args)
    inp = _pairing_input(doc, args.group_index)
    betas = _parse_list(args.beta_list)
    return beta_independence(t, inp, betas, tol=args.tol)


def _cmd_endpoint(args):
    doc, t = _load_triple(args)
    _required(doc, "q", "regularizer")
    fam = linear_family(
        t, matrix_from_json(doc["q"]), regularizer=matrix_from_json(doc["regularizer"])
    )
    inp = _pairing_input(doc, args.group_index)
    return endpoint_grid(
        fam,
        _parse_grid(args.eps_grid),
        _parse_grid(args.lambda_grid),
        inp,
        tol=args.tol,
    )


def _cmd_split_pair(args):
    doc = _load_json(args.input)
    s = require_valid_split(_split(doc))
    inp = _pairing_input(doc, args.group_index)
    res = split_pairing(s, inp, max_level=args.max_level, tol=args.tol)
    payload = asdict(res)
    del payload["connes_value"]  # the idempotent form is reported for plain triples
    return payload


def _cmd_coupling_sweep(args):
    doc = _load_json(args.input)
    s = _split(doc)
    _required(doc, "q2_tilde")
    qt2 = _check_shape("q2_tilde", matrix_from_json(doc["q2_tilde"]), s.dim)

    def family(lam: float) -> SplitTriple:
        return replace(s, Q2=np.cos(lam) * s.Q2 + np.sin(lam) * qt2)

    inp = _pairing_input(doc, args.group_index)
    return coupling_sweep(
        family,
        inp,
        _parse_grid(args.lambda_grid),
        mode=args.mode,
        tol=args.tol,
    )


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed)
    return {"report": report}, 0 if report["passed"] else 1


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


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError for a usage error, instead of printing usage and exiting 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="heatchern",
        description="heat-kernel characters, pairings, and invariance sweeps",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--input", help="input JSON path")
    p.add_argument("--output", help="output path (default: stdout)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds once per process; ``parse_args`` keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        _print_error(None, exc)
        return 3
    cmd = _COMMANDS[args.command]
    needs_input = args.command != "selftest"
    try:
        _check_max_level(args.max_level)
        _check_tol(args.tol)
        if needs_input:
            if not args.input:
                raise FileNotFoundError("--input is required for this command")
            if not Path(args.input).exists():
                raise FileNotFoundError(f"input file {args.input!r} not found")
        return _emit(args, cmd(args))
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
    """Write the JSON error object to stderr, and to ``--output`` when given."""
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    text = dumps_canonical(obj)
    if args is not None and args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError:
            pass
    print(text, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
