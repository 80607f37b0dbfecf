"""JSON and CSV interchange.

Complex scalars are two-element arrays [re, im]; matrices are arrays of
rows.  Floats are emitted with 17 significant digits, which round-trips
IEEE doubles bit-exactly, and no locale-dependent formatting is used.
Non-finite floats become the strings "NaN", "Infinity" and "-Infinity",
which keeps the output valid JSON and which float() reads back.
A group may be given as an explicit list of matrices or through the
shorthand {"cyclic": k, "generator": M}, which expands to the k powers
of M at load time.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatch
from .triples import SpectralTriple
from .split import SplitTriple

__all__ = [
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "triple_to_json",
    "triple_from_json",
    "split_from_json",
    "split_to_json",
    "dumps_canonical",
    "csv_text",
]


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _scalar_from_json(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise DimensionMismatch(f"cannot parse complex scalar from {v!r}")


def matrix_from_json(rows) -> np.ndarray:
    try:
        m = np.array([[_scalar_from_json(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"cannot parse matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    return m


def matrix_to_json(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[complex_to_json(v) for v in row] for row in arr]


def _group_from_json(spec, dim: int) -> list[np.ndarray]:
    if isinstance(spec, dict) and "cyclic" in spec:
        k = int(spec["cyclic"])
        gen = matrix_from_json(spec["generator"])
        out = [np.eye(dim, dtype=complex)]
        cur = np.eye(dim, dtype=complex)
        for _ in range(k - 1):
            cur = cur @ gen
            out.append(cur)
        return out
    if isinstance(spec, list):
        return [matrix_from_json(m) for m in spec]
    raise DimensionMismatch(f"cannot parse group from {type(spec).__name__}")


def triple_from_json(d: dict) -> SpectralTriple:
    for key in ("dim", "Q", "gamma"):
        if key not in d:
            raise DimensionMismatch(f"triple JSON is missing key {key!r}")
    dim = int(d["dim"])
    group = _group_from_json(d.get("group", [np.eye(dim).tolist()]), dim) if d.get(
        "group"
    ) else [np.eye(dim, dtype=complex)]
    return SpectralTriple(
        dim=dim,
        Q=matrix_from_json(d["Q"]),
        gamma=matrix_from_json(d["gamma"]),
        group=group,
        tol=float(d.get("tol", 1e-10)),
    )


def triple_to_json(t: SpectralTriple) -> dict:
    return {
        "dim": t.dim,
        "Q": matrix_to_json(t.Q),
        "gamma": matrix_to_json(t.gamma),
        "group": [matrix_to_json(u) for u in t.group],
        "tol": t.tol,
    }


def split_from_json(d: dict) -> SplitTriple:
    for key in ("dim", "Q1", "Q2", "gamma"):
        if key not in d:
            raise DimensionMismatch(f"split JSON is missing key {key!r}")
    dim = int(d["dim"])
    group = _group_from_json(d.get("group", []), dim) if d.get("group") else [
        np.eye(dim, dtype=complex)
    ]
    return SplitTriple(
        dim=dim,
        Q1=matrix_from_json(d["Q1"]),
        Q2=matrix_from_json(d["Q2"]),
        gamma=matrix_from_json(d["gamma"]),
        group=group,
        tol=float(d.get("tol", 1e-10)),
    )


def split_to_json(s: SplitTriple) -> dict:
    return {
        "dim": s.dim,
        "Q1": matrix_to_json(s.Q1),
        "Q2": matrix_to_json(s.Q2),
        "gamma": matrix_to_json(s.gamma),
        "group": [matrix_to_json(u) for u in s.group],
        "tol": s.tol,
    }


def _fmt_float(x: float) -> str:
    if x != x:
        return '"NaN"'
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    s = format(float(x), ".17g")
    return s


def _write(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (np.bool_,)):
        out.append("true" if bool(obj) else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write(complex_to_json(obj), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def csv_text(rows: list[list]) -> str:
    """CSV with the same float formatting; no quoting is ever needed."""
    lines = []
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format(float(v), ".17g"))
            elif isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
