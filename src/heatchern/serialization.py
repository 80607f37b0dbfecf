"""JSON and CSV interchange.

Complex scalars are two-element arrays [re, im]; matrices are arrays of
rows.  Floats are emitted with 17 significant digits, and negative zero as
-0.0, which round-trips IEEE doubles bit-exactly; no locale-dependent
formatting is used.
Non-finite floats become the strings "NaN", "Infinity" and "-Infinity",
which keeps the output valid JSON and which float() reads back.
Each ``HeatData`` kind is one object: "dim", its ``GENERATORS`` matrices,
"gamma", "group" and "tol", read and written by one codec.  A null or
non-numeric "dim", "tol" or cyclic order is a ``DimensionMismatch``, and so
is a boolean in any of them, a non-integral "dim" or cyclic order, and a
"tol" that is not positive and finite.  Every generator and "gamma" is
checked to be "dim" x "dim" before the group is built, so a "dim" that
the matrices do not match is a ``DimensionMismatch`` and allocates nothing.
A group may be given as an explicit list of matrices or through the
shorthand {"cyclic": k, "generator": M}, which expands to the k powers
of M at load time.  An order k < 1 is a ``DimensionMismatch``, and k
powers with more entries k dim^2 than one budgeted block matrix
(``MAX_BLOCK_ORDER``^2) raise ``ComplexityCap`` before any is formed.
"""

from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

from .errors import ComplexityCap, DimensionMismatch
from .expectations import MAX_BLOCK_ORDER
from .triples import HeatData, SpectralTriple, _check_shape
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
    """The square complex matrix laid out by ``rows``, a list of rows of
    numbers or of [re, im] pairs.

    A well-formed nested list, one that numpy reads as an (n, n) or
    (n, n, 2) array of integers or floats, is converted in one step.
    Everything else goes entry by entry (``_matrix_by_entry``), which names
    what it cannot parse; on the JSON inputs both give the same bits.
    """
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged rows: the entry-by-entry path names them
        return _matrix_by_entry(rows)
    n = arr.shape[0] if arr.ndim else -1
    if arr.dtype.kind not in "iuf" or arr.shape not in ((n, n), (n, n, 2)):
        return _matrix_by_entry(rows)
    if arr.ndim == 2:
        return arr.astype(complex)
    m = np.empty((n, n), dtype=complex)
    m.real, m.imag = arr[..., 0], arr[..., 1]
    return m


def _matrix_by_entry(rows) -> np.ndarray:
    """``matrix_from_json`` one entry at a time, with a DimensionMismatch
    naming the first entry or shape it cannot use."""
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


def _number(convert, value, name: str):
    """convert(value), with a null, non-numeric or boolean field, or for int a
    fraction that int() would truncate, as a schema error."""
    try:
        out = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{name} must be a number, got {value!r}") from exc
    fraction = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or (convert is int and fraction):
        kind = "an integer" if convert is int else "a number"
        raise DimensionMismatch(f"{name} must be {kind}, got {value!r}")
    return out


def _required(d: dict, *keys: str, what: str = "input JSON", note: str = ""):
    """Raise DimensionMismatch naming ``what`` and the first of ``keys`` missing from ``d``."""
    for key in keys:
        if key not in d:
            raise DimensionMismatch(f"{what} is missing key {key!r}{note}")


def _group_from_json(spec, dim: int) -> list[np.ndarray]:
    if isinstance(spec, dict) and "cyclic" in spec:
        k = _number(int, spec["cyclic"], "group cyclic order")
        if k < 1:
            raise DimensionMismatch(f"group cyclic order must be positive, got {k}")
        if k * dim * dim > MAX_BLOCK_ORDER**2:
            raise ComplexityCap(
                f"cyclic group of order {k} at dim {dim} has {k * dim * dim} entries, "
                f"over the budget of one block matrix, {MAX_BLOCK_ORDER}^2"
            )
        _required(spec, "generator", what="cyclic group")
        gen = _check_shape("group generator", matrix_from_json(spec["generator"]), dim)
        out = [np.eye(dim, dtype=complex)]
        cur = np.eye(dim, dtype=complex)
        for _ in range(k - 1):
            cur = cur @ gen
            out.append(cur)
        return out
    if isinstance(spec, list):
        return [matrix_from_json(m) for m in spec]
    raise DimensionMismatch(f"cannot parse group from {type(spec).__name__}")


def _from_json(cls: type[HeatData], kind: str, d) -> HeatData:
    """The ``cls`` instance that ``d`` lays out: dim, each generator, gamma, group, tol."""
    if not isinstance(d, dict):
        raise DimensionMismatch(f"{kind} JSON must be an object, got {type(d).__name__}")
    names = cls.GENERATORS + ("gamma",)
    _required(d, "dim", *names, what=f"{kind} JSON")
    dim = _number(int, d["dim"], "dim")
    # shape-checked before the group allocates anything of size dim
    mats = {n: _check_shape(n, matrix_from_json(d[n]), dim) for n in names}
    spec = d.get("group")
    group = [np.eye(dim, dtype=complex)] if spec in (None, []) else _group_from_json(spec, dim)
    tol = _number(float, d.get("tol", 1e-10), "tol")
    if not 0 < tol < math.inf:
        raise DimensionMismatch(f"tol must be positive and finite, got {tol}")
    return cls(dim=dim, **mats, group=group, tol=tol)


def _to_json(h: HeatData) -> dict:
    return {
        "dim": h.dim,
        **{n: matrix_to_json(getattr(h, n)) for n in h.GENERATORS + ("gamma",)},
        "group": [matrix_to_json(u) for u in h.group],
        "tol": h.tol,
    }


triple_from_json = partial(_from_json, SpectralTriple, "triple")
split_from_json = partial(_from_json, SplitTriple, "split")
triple_to_json = split_to_json = _to_json


def _fmt_float(x: float) -> str:
    if x != x:
        return '"NaN"'
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    s = format(float(x), ".17g")
    # "-0" would read back as the integer 0 and lose the sign
    return "-0.0" if s == "-0" else s


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
    """CSV with the JSON writer's float tokens, unquoted; no quoting is ever needed."""
    lines = []
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(_fmt_float(float(v)).strip('"'))
            elif isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
