"""The benchmark's own scripts still run against the package's entry points."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path as FilePath

from netinverse import learner
from netinverse.network import Observation, Path
from netinverse.scenarios import generate_observations, load_scenario

ROOT = FilePath(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_grid_curve_runs_at_4x4():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "grid_curve.py"), "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert " 4x4 " in proc.stdout


def test_tracer_counts_inverse_calls_and_solves(monkeypatch, toy_net, toy_priced):
    """The tracer wraps the names the learner and the inverse look up."""

    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    for module, attr, _ in tracing.ENTRY_POINTS:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored afterwards
    tracer = tracing.Tracer()
    tracer.install()
    obs = [
        Observation("g1", Path("O", "D", (1,)), weight=100.0),
        Observation("g2", Path("O", "D", (2,)), weight=200.0),
    ]
    trace = learner.recover_prices(obs, toy_net, toy_net.base_costs(), toy_priced)
    summary = tracer.summary()
    assert summary["learner.iterations"] == trace.iterations > 1
    assert summary["inverse.calls"] == 2 * trace.iterations
    assert summary["simplex.solves"] == 2 * summary["inverse.calls"]
    assert summary["simplex.stage2_solves"] == summary["inverse.calls"]
    assert summary["simplex.pivots"] > 0


def test_nd_recovery_work_is_pinned(monkeypatch, data_dir, nd_net, nd_priced):
    """Price recovery on the shipped flow-sampling scenario does exactly this much work.

    The counts are deterministic: a change to the pivot path, the grouping of
    observations or the stopping rule moves them and fails here.
    """

    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    for module, attr, _ in tracing.ENTRY_POINTS:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored afterwards
    tracer = tracing.Tracer()
    tracer.install()
    observations, _ = generate_observations(
        load_scenario(data_dir / "scenarios" / "flow_sampling_800.scn")
    )
    trace = learner.recover_prices(observations, nd_net, nd_net.base_costs(), nd_priced)
    summary = tracer.summary()
    assert trace.converged and trace.iterations == 202
    assert summary["inverse.calls"] == 1212
    assert summary["simplex.solves"] == 2424
    assert summary["simplex.stage2_solves"] == 1212
    assert summary["simplex.pivots"] == 24880
    assert summary["simplex.non_optimal"] == 0


def test_grid_online_work_is_pinned(monkeypatch, tmp_path):
    """The benchmark's grid-online stream (seed 1) does exactly this work and writes this state.

    Its 449-row LPs pivot on SuperLU factorisations of their bases, and the
    certificate of each comes from a SuperLU of its final basis: a change to
    the pivot path or to the certified values moves the counts or the digest
    and fails here.
    """

    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    for module, attr, _ in tracing.ENTRY_POINTS:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored afterwards
    tracer = tracing.Tracer()
    tracer.install()
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    result = workloads.run_online(workloads.setup_grid_online(1, inputs), out)
    summary = tracer.summary()
    assert (result.attempted, result.failed, result.errors) == (16, 0, [])
    assert summary["simplex.solves"] == 32
    assert summary["simplex.pivots"] == 2814
    assert summary["simplex.non_optimal"] == 0
    digest = hashlib.sha256((out / "state.json").read_bytes()).hexdigest()
    assert digest == "4a580ebe8ac84e85d89f15907fd2c1f46432db370cfc2692fa95ab7990029f62"
