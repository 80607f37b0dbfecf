"""Spans around calls into heatchern's public functions, for traced runs.

``patched(recorder)`` swaps each traced function, in every heatchern module
namespace that holds it, for a wrapper that records a span, and restores
the originals on exit.  The library is not modified; spans live in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, function) pairs traced as "module.function" spans.
TRACED = (
    ("serialization", "triple_from_json"),
    ("serialization", "dumps_canonical"),
    ("triples", "validate_triple"),
    ("jlo", "pairing_series"),
    ("jlo", "pairing_gaussian"),
    ("jlo", "equivariant_index"),
    ("jlo", "jlo_component"),
    ("expectations", "heat_expectation"),
    ("cochains", "cocycle_residual"),
    ("homotopy", "sweep_invariant"),
    ("homotopy", "endpoint_grid"),
    ("homotopy", "beta_independence"),
    ("homotopy", "coboundary_relation_residual"),
    ("split", "split_pairing"),
    ("split", "coupling_sweep"),
)
# (module, class, method): the cached Q^2 eigendecomposition.
TRACED_METHODS = (("triples", "SpectralTriple", "heat_data"),)


def _label(name: str, args, kw) -> str:
    """Span name, split by level or method where a metric needs it."""
    if name == "jlo.jlo_component":
        return f"{name}.n{kw['n'] if 'n' in kw else args[1]}"
    if name == "expectations.heat_expectation":
        method = kw.get("method", args[3] if len(args) > 3 else "exact")
        return f"{name}.{method}"
    return name


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "scale")

    def __init__(self, name, start, parent, request):
        self.name, self.start, self.end = name, start, start
        self.parent, self.request = parent, request
        self.scale = 1.0  # raw seconds to normalized seconds


class Recorder:
    """In-memory spans (name, start, end, parent, request) and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.levels: list[tuple[int, int]] = []  # (span index, series level)
        self.request = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kw):
            with self.span(_label(name, args, kw)) as idx:
                out = fn(*args, **kw)
            if name == "jlo.pairing_series":
                self.levels.append((idx, int(out[1])))
            return out

        return traced

    def scale(self, first: int, factor: float):
        """Set the normalization factor of the spans from index ``first`` on."""
        for s in self.spans[first:]:
            s.scale = factor

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover,
        in normalized seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start - c) * s.scale for s, c in zip(self.spans, child)]

    def dump(self, path):
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "scale": s.scale,
                    "self": own,
                }) + "\n")


@contextmanager
def patched(rec: Recorder):
    """Route calls to the traced functions through ``rec`` while active."""
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "heatchern" or n.startswith("heatchern."))]
    restore = []
    try:
        for modname, attr in TRACED:
            orig = getattr(sys.modules[f"heatchern.{modname}"], attr)
            wrapper = rec.wrap(f"{modname}.{attr}", orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        restore.append((m, key, val))
                        setattr(m, key, wrapper)
        for modname, clsname, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"heatchern.{modname}"], clsname)
            orig = cls.__dict__[meth]
            restore.append((cls, meth, orig))
            setattr(cls, meth, rec.wrap(f"{modname}.{meth}", orig))
        yield rec
    finally:
        for obj, key, val in reversed(restore):
            setattr(obj, key, val)
