"""Times in seconds at a nominal machine speed.

On a shared host the same request can take 1.8 times longer for minutes
at a stretch, while other tenants load the machine.  Dividing each timed
block by the time of a fixed pure-Python reference kernel, run just before
and just after the block, cancels most of that: in a 4-minute trace the
spread of 30-second p50 latencies fell from 13% to 3%.  The ratio is scaled
back to seconds by REF_NOMINAL_S, about the kernel's time on the 2-core x86
virtual machine the benchmark was tuned on.  The kernel never calls the
library, so a library change moves the measured block but not the gauge.
"""

from __future__ import annotations

import time

REF_NOMINAL_S = 1e-3


def reference_kernel() -> float:
    """Fixed interpreter work: float arithmetic and dict stores."""
    acc = 0.0
    table = {}
    for k in range(3000):
        acc += (k * 0.5) ** 2 % 7.0
        table[k & 63] = acc
    return acc


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def timed(fn):
    """Run ``fn()``; return (result, normalized seconds, raw seconds)."""
    before = reference_s()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    ref = (before + reference_s()) / 2.0
    return out, raw * REF_NOMINAL_S / ref, raw
