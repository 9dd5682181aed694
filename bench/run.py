"""Benchmark of netinverse: batch recovery, online pricing and a large grid.

Usage, from the root of a checkout::

    python3 bench/run.py --workload nd-batch --seed 1 --seconds 60 --trace 0

Workloads: ``nd-batch`` and ``grid-online`` (see README.md).
For ``--seconds`` the run starts one worker process after another, each of
which sets the workload up from the seed and runs its timed phase once (one
round).  It then sets up alone until it has seven set-up times, checks that
every round wrote byte-identical outputs, checks the first round's outputs
against computations made apart from the program, and prints the metrics.

``--trace 0`` prints the end-to-end metrics of untraced rounds.  ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones, plus ``trace.overhead_s``; the first traced round's spans
are kept in ``.bench_work/spans-<workload>.jsonl``.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line is printed with ``"correct": false``), 2 when the package sources are
not in the checkout, 3 when a worker process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 120
# per-layer metrics in these units are times; the others count work and must
# repeat exactly between rounds
TIME_UNITS = ("s", "ms", "us")
# BLAS threading is pinned: with the default pool, lu_factor at m >= 150 took
# ~120 ms instead of ~0.4 ms in some processes, and grid timings doubled.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def _worker(args, round_dir: Path, traced: bool, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(round_dir),
    ]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker killed after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["traced"] = traced
    report["dir"] = round_dir
    return report


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _machine_facts(rounds: list[dict]) -> str:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return (
        f"machine: python {platform.python_version()}, "
        f"numpy {numpy.__version__} (blas {blas(numpy)}), "
        f"scipy {scipy.__version__} (blas {blas(scipy)}), "
        f"blas threads in workers {rounds[0]['blas_threads']} "
        f"(OPENBLAS_NUM_THREADS={PINNED_ENV['OPENBLAS_NUM_THREADS']}), "
        f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()} {platform.system()}"
    )


def _checks(args, round_dir: Path) -> list[str]:
    import checks
    import params

    if args.workload == "nd-batch":
        return checks.check_nd_batch(round_dir, params.ND_TOL, params.COST_TOL)
    return checks.check_online(round_dir, "grid_links.csv", "grid_obs.csv")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "netinverse" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, spec, work)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # it holds spans, or another run is still using it
            pass


def _run(args, spec: dict, work: Path) -> int:
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(_worker(args, work / f"round{len(rounds):02d}", traced))
        print(f"round {len(rounds)} ({'traced' if traced else 'untraced'}): "
              f"setup {rounds[-1]['setup_s']:.3f} s, run {rounds[-1]['run_s']:.3f} s",
              file=sys.stderr)
        setups = [r["setup_s"] for r in rounds if not r["traced"]]
        # the set-up-only workers still owed also run inside the window
        owed = 0 if args.trace else max(0, SETUP_SAMPLES - len(setups) - 1)
        elapsed = time.monotonic() - start
        upcoming = elapsed / len(rounds) + owed * statistics.median(setups)
        if len(rounds) >= (2 if args.trace else 1) and elapsed + upcoming > args.seconds:
            break
    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if traced_rounds:  # keep one round's spans once the round directories go
        shutil.copyfile(traced_rounds[0]["dir"] / "spans.jsonl",
                        work.parent / f"spans-{args.workload}.jsonl")
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args, work / f"setup{len(setups):02d}", False, True)["setup_s"])

    errors: list[str] = []
    digests = {_digest(r["dir"] / "out") for r in rounds}
    if len(digests) != 1:
        errors.append(f"rounds wrote different outputs: {len(digests)} distinct digests")
    for key in ("attempted", "failed", "iterations", "updates"):
        if len({r[key] for r in rounds}) != 1:
            errors.append(f"{key} differs between rounds: {[r[key] for r in rounds]}")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in TIME_UNITS]
    for name in counts:
        if len({r["layers"][name] for r in traced_rounds}) > 1:
            errors.append(f"{name} differs between traced rounds")
    errors += _checks(args, rounds[0]["dir"])

    print(_machine_facts(rounds))
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_rounds)} traced rounds, {len(setups)} set-ups, "
          f"{rounds[0]['attempted']} operations per round")
    print(f"output digest: sha256 {sorted(digests)[0]}")

    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_rounds)
            for name in traced_rounds[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced_rounds)
            - statistics.median(r["run_s"] for r in untraced)
        )
        wanted = spec["per_layer"]
        values = layers
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for error in rounds[0]["errors"]:
        print(f"operation failed: {error}")
    for error in errors:
        print(f"check failed: {error}")
    print("checks: " + ("passed" if not errors else f"{len(errors)} failed"))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
