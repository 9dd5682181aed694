"""The benchmark's own scripts still run against the package's entry points."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

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
    # route (1,) is a shortest route under every prior of the run and takes no
    # LP; route (2,) takes one per iteration, one solve for all three stages
    assert summary["inverse.calls"] == trace.iterations
    assert summary["simplex.solves"] == summary["inverse.calls"]
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
    assert summary["inverse.calls"] == 368
    assert summary["simplex.solves"] == 368
    assert summary["simplex.stage2_solves"] == 0
    assert summary["simplex.pivots"] == 82
    assert summary["simplex.non_optimal"] == 0


def test_grid_online_work_is_pinned(monkeypatch, tmp_path):
    """The benchmark's grid-online stream (seed 1) does exactly this work and writes this state.

    Its 448-row LPs pivot on SuperLU factorisations of their
    bases, and the certificate of each comes from a SuperLU of its final
    basis: a change to the pivot path or to the certified values moves the
    counts or the digest and fails here.
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
    assert summary["simplex.solves"] == 5
    assert summary["simplex.pivots"] == 583
    assert summary["simplex.non_optimal"] == 0
    digest = hashlib.sha256((out / "state.json").read_bytes()).hexdigest()
    assert digest == "f1eb9afc91657fbaaf8af8578a1637a981bfee8d8fb7a306968dfbfe58c64287"


def test_nd_batch_work_is_pinned(monkeypatch, tmp_path):
    """The benchmark's nd-batch round (seed 1) does exactly this work and writes these traces.

    It is the only pinned run of the cost inverse, whose LPs carry free node
    potentials: a change to the pivot path, the stopping rule or the
    certified values moves the counts or a digest and fails here.
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
    result = workloads.run_nd_batch(workloads.setup_nd_batch(1, inputs), out)
    summary = tracer.summary()
    assert (result.attempted, result.failed, result.errors) == (3, 0, [])
    assert result.iterations == 272
    assert summary["inverse.calls"] == 436
    assert summary["simplex.solves"] == 436
    assert summary["simplex.stage2_solves"] == 0
    assert summary["simplex.pivots"] == 90
    assert summary["simplex.non_optimal"] == 0
    digests = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    assert digests == {
        "costs_correlated/agent_posteriors.csv":
            "0050cce972b31d1118cd7aa7b9a513c1e9122d31719b516f5567253435a891ab",
        "costs_correlated/prior_trace.csv":
            "5295fe9d166daeb8a69871c913bb3068faebbb02559e908947ca54392613a47d",
        "costs_correlated/summary.txt":
            "fbc158cea294bd82f7364f57e3b2149b0dbc69ef422f2d368b6d29fa41e3c652",
        "costs_independent/agent_posteriors.csv":
            "a89dfecb25c873ef4549067b56c0556805241ff4871f4340aa8245b502823b36",
        "costs_independent/prior_trace.csv":
            "886892c67e23b2c054f99645bbfa346d9c4b64a91af01fa1c4884a4de849c50b",
        "costs_independent/summary.txt":
            "d7ecfb6829b4b704aa86199dbfe3afdafc7f5e4409234065996b2a41887492ab",
        "nd_duals/agent_posteriors.csv":
            "1c16b9df99c73a4ea1e205f6efd8b2b9113d2ff5e105eb4b26da05419028a15c",
        "nd_duals/prior_trace.csv":
            "ddcf6478f6c9fa8049f57c937f88a2a19c3b08dcf683e7f1e2ca98e9ef215676",
        "nd_duals/summary.txt":
            "b87e75719808bf404b09e2db2e29befe422e0517c8ac4fc9a46106d808f2e64b",
    }


def test_nd_batch_inputs_are_pinned(monkeypatch, tmp_path):
    """The benchmark's nd-batch set-up (seed 1) generates exactly these input files.

    The output digests above pin what a round computes; these pin what it is
    given, so a generator or writer change cannot quietly change the work the
    benchmark times.
    """

    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    workloads.setup_nd_batch(1, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("nd_obs.csv", "population_independent.csv", "population_correlated.csv")
    }
    assert digests == {
        "nd_obs.csv": "4d30cf1bf0184393528e0dfc4b4c1c5c632bacfee6ceb4292bd593a3beae2927",
        "population_independent.csv":
            "51af884e534f65ad4350b4995e0153a38c486a48051ab7cc4b119be32cabd34f",
        "population_correlated.csv":
            "8db714f4c6edc1e64a8b5fe91476d0798fff118456741b3c273390c63ad4bba0",
    }


@pytest.mark.parametrize("seed, independent, correlated", [
    (2, "6946f846565f41db872c9860f96dee7f83400f0efe23f991cdf8767d2b0155c2",
     "e200b17e81547a6433218e979288b2520e056bf94292c83cdfefc113b55e375b"),
    (4, "c18dfdb1bf3c68134754f4fa9ef490bbee095603271077884c9c1c43f6a28f94",
     "a269796762aceb6d24e943fb6fa7a0c603b03367b0aa7a6df81ef99b3e64caa5"),
])
def test_nd_batch_populations_with_ties_are_pinned(monkeypatch, tmp_path, seed, independent,
                                                    correlated):
    """The nd-batch populations at seeds whose independent draw ties agents' route costs.

    Seeds 2 and 4 leave 4 and 3 of 20000 agents with two routes of least cost,
    which ``shortest_path`` breaks by its own order: a generator that broke
    them otherwise would move these digests.
    """

    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    workloads.setup_nd_batch(seed, tmp_path)
    digests = [
        hashlib.sha256((tmp_path / f"population_{kind}.csv").read_bytes()).hexdigest()
        for kind in ("independent", "correlated")
    ]
    assert digests == [independent, correlated]
