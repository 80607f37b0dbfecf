"""Count the SVD, eigh, expm and FFT calls of one round of a perfbench workload.

    python tools/call_census.py WORKLOAD [--seed S] [--src SRC]

Builds the first round of WORKLOAD (``pair-series``, ``sweep-quadrature``
or ``character-cochains``) with ``perfbench.workloads``, runs each request
once in process, and prints how many times ``np.linalg.svd``,
``np.linalg.eigh``, ``heatchern.linalg.expm`` and ``np.fft.fft`` were
called, in total and per request class.  One ``expm`` call may take a stack
of matrices, so the census also counts the exponentiated slices (the sum of
the stack sizes, a single matrix counting one) and, on the total line, the
slices by their order.  SRC is the directory holding the ``heatchern``
package (``src`` of this checkout by default), so the same round can be
counted on two trees.  BLAS is pinned to one thread, as in perfbench.  A
request that fails its gate raises.
"""

import argparse
import importlib
import os
import pkgutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("svd", "eigh", "expm", "slices", "fft")


def load(src: Path):
    """Import heatchern from ``src`` with every submodule loaded."""
    sys.path.insert(0, str(src))
    import heatchern

    if Path(heatchern.__file__).resolve().parent != (src / "heatchern").resolve():
        sys.exit(f"call_census: imported heatchern from {heatchern.__file__}")
    for info in pkgutil.iter_modules(heatchern.__path__):
        importlib.import_module(f"heatchern.{info.name}")
    return heatchern


def install_counters(hc, counts: Counter, orders: Counter):
    """Wrap the four kernels; ``counts[name]`` grows by one per call.

    ``counts["slices"]`` grows by the number of matrices each ``expm`` call
    exponentiates, and ``orders[n]`` by those of order n.  ``expm`` is
    replaced in ``heatchern.linalg`` and in every submodule that imported
    it by name.
    """
    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    np.linalg.svd = counting("svd", np.linalg.svd)
    np.linalg.eigh = counting("eigh", np.linalg.eigh)
    np.fft.fft = counting("fft", np.fft.fft)
    expm = hc.linalg.expm

    def sliced(m, *args, **kw):
        shape = np.shape(m)
        slices = shape[0] if len(shape) == 3 else 1
        counts["slices"] += slices
        orders[shape[-1]] += slices
        return expm(m, *args, **kw)

    wrapped = counting("expm", sliced)
    for name, mod in list(sys.modules.items()):
        if name.startswith("heatchern") and getattr(mod, "expm", None) is expm:
            mod.expm = wrapped


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--src", type=Path, default=ROOT / "src")
    args = p.parse_args(argv)

    hc = load(args.src)
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    (requests, *_), _ = workloads.build(args.workload, args.seed, rounds=1)
    counts, orders, by_class = Counter(), Counter(), {}
    install_counters(hc, counts, orders)
    with tempfile.TemporaryDirectory() as tmp:
        workloads.materialize(requests, Path(tmp), hc)
        for req in requests:
            before = counts.copy()
            workloads.execute(hc, req)
            by_class.setdefault(req.cls, Counter()).update(counts - before)
            by_class[req.cls]["requests"] += 1
    print(f"{args.workload} seed {args.seed}: {len(requests)} requests, "
          + ", ".join(f"{k} {counts[k]}" for k in KERNELS))
    print("  slices by order: " + ", ".join(f"{n}: {orders[n]}" for n in sorted(orders)))
    for cls, c in by_class.items():
        print(f"  {cls}: {c['requests']} requests, "
              + ", ".join(f"{k} {c[k]}" for k in KERNELS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
