"""One round of one workload, in a process of its own.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH and
BLAS pinned to one thread.  The round imports the package, sets up the
workload's inputs, runs the timed phase once, and prints one JSON object on
its last line of output.  ``setup_s`` runs from ``--t0`` (the parent's
monotonic clock just before it started this process) to the first timed
call; ``CLOCK_MONOTONIC`` is shared by every process on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="round directory (inputs/, out/)")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import netinverse

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(netinverse.__file__).resolve().is_relative_to(src):
        print(f"netinverse imported from {netinverse.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    round_dir = Path(args.dir)
    inputs, out = round_dir / "inputs", round_dir / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    data = setup(args.seed, inputs)
    start = time.monotonic()
    report = {"setup_s": start - args.t0}
    if not args.setup_only:
        result = run(data, out)
        report.update(
            run_s=time.monotonic() - start,
            attempted=result.attempted,
            failed=result.failed,
            iterations=result.iterations,
            updates=result.updates,
            errors=result.errors,
        )
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write(round_dir / "spans.jsonl")
    report["blas_threads"] = blas_threads()
    print(json.dumps(report))
    return 0


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""

    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(lib)] = fn()
                break
    return found


if __name__ == "__main__":
    raise SystemExit(main())
