"""Seeded inputs and timed phases of the benchmark workloads.

Every workload has two halves, both run inside one worker process:

* ``setup`` generates the inputs from the seed, writes them as files under
  the round directory, and loads them back through the package's loaders,
  so the program only ever sees generated files;
* ``run`` is the timed phase: the learner calls the CLI makes, followed by
  the writers that put the result on disk.

The program is reached only through module attributes (``learner.X``,
``network.X``), so that the traced run can wrap exactly the names the
callers look up.  Each operation is one fixed point or one arrival; an
exception, an unconverged fixed point or a skipped arrival counts as failed.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from netinverse import flows, learner, network, scenarios
from params import (
    COST_PRIOR,
    COST_TOL,
    GRID_ARRIVALS,
    GRID_MIN_HOPS,
    GRID_SIDE,
    ND_PRICED,
    ND_SAMPLES,
    ND_TOL,
    POPULATION_AGENTS,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def sub_seed(seed: int, label: str) -> int:
    """A generator seed for one input, derived from the run seed."""

    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    iterations: int = 0
    updates: int = 0
    errors: list[str] = field(default_factory=list)


def _copy(name: str, into: Path) -> None:
    shutil.copyfile(DATA / name, into / name)


def _scenario(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _generate(scenario_file: Path, obs_file: Path) -> None:
    spec = scenarios.load_scenario(scenario_file)
    observations, header = scenarios.generate_observations(spec)
    network.write_observations(observations, obs_file, header_comments=header)


def _population_scenario(shipped: str, seed: int) -> list[str]:
    """The shipped population's cost distribution with a new seed and size."""

    lines = []
    for raw in (DATA / "scenarios" / shipped).read_text(encoding="utf-8").splitlines():
        key = raw.split("=", 1)[0].strip()
        if key == "seed":
            raw = f"seed = {seed}"
        elif key == "network":
            raw = "network = fourlink_links.csv"
        elif key == "demand":
            raw = "demand = population_demand.csv"
        lines.append(raw)
    return lines


# ---------------------------------------------------------------------------
# nd-batch
# ---------------------------------------------------------------------------


@dataclass
class NdBatchInputs:
    nd_net: network.Network
    nd_obs: list
    four_net: network.Network
    populations: dict[str, list]


def setup_nd_batch(seed: int, inputs: Path) -> NdBatchInputs:
    for name in ("nd_links.csv", "nd_demand.csv", "nd_caps_800.csv", "fourlink_links.csv"):
        _copy(name, inputs)
    (inputs / "population_demand.csv").write_text(
        f"origin,destination,flow\n1,4,{POPULATION_AGENTS}\n", encoding="utf-8"
    )
    _scenario(inputs / "flow_sampling.scn", [
        "kind = FLOW_SAMPLING",
        "network = nd_links.csv",
        "demand = nd_demand.csv",
        "capacities = nd_caps_800.csv",
        f"seed = {sub_seed(seed, 'nd-flow-sampling')}",
        f"samples = {ND_SAMPLES}",
    ])
    _generate(inputs / "flow_sampling.scn", inputs / "nd_obs.csv")
    for kind in ("independent", "correlated"):
        shipped = f"population_{kind}.scn"
        scn = _scenario(
            inputs / shipped,
            _population_scenario(shipped, sub_seed(seed, f"population-{kind}")),
        )
        _generate(scn, inputs / f"population_{kind}.csv")

    nd_net = network.load_network(inputs / "nd_links.csv")
    four_net = network.load_network(inputs / "fourlink_links.csv")
    return NdBatchInputs(
        nd_net,
        network.load_observations(inputs / "nd_obs.csv", nd_net),
        four_net,
        {
            kind: network.load_observations(inputs / f"population_{kind}.csv", four_net)
            for kind in ("independent", "correlated")
        },
    )


def run_nd_batch(data: NdBatchInputs, out: Path) -> RoundResult:
    res = RoundResult()
    priced = network.CapacitySpec.priced_only(ND_PRICED)
    prior = {l.id: COST_PRIOR for l in data.four_net.links}
    fixed_points = {
        "nd_duals": lambda: learner.recover_prices(
            data.nd_obs, data.nd_net, data.nd_net.base_costs(), priced, tol=ND_TOL
        ),
        "costs_independent": lambda: learner.estimate_costs(
            data.populations["independent"], data.four_net, prior, tol=COST_TOL
        ),
        "costs_correlated": lambda: learner.estimate_costs(
            data.populations["correlated"], data.four_net, prior, tol=COST_TOL
        ),
    }
    for name, fixed_point in fixed_points.items():
        res.attempted += 1
        try:
            trace = fixed_point()
            learner.write_trace(trace, out / name)
        except Exception as exc:  # an operation that raises counts as failed
            res.failed += 1
            res.errors.append(f"{name}: {exc!r}")
            continue
        res.iterations += trace.iterations
        if not trace.converged or trace.skipped_agents:
            res.failed += 1
            res.errors.append(f"{name}: converged={trace.converged}, "
                              f"skipped {len(trace.skipped_agents)} agents")
    return res


# ---------------------------------------------------------------------------
# grid-online
# ---------------------------------------------------------------------------


@dataclass
class OnlineInputs:
    net: network.Network
    observations: list


def grid_node(i: int, j: int) -> str:
    return f"g{i}_{j}"


def grid_network(k: int, rng: np.random.Generator) -> network.Network:
    """A bidirectional k-by-k grid, 4k(k-1) links with integer costs 5..15.

    Both directions of a street share one cost.
    """

    links = []
    for i in range(k):
        for j in range(k):
            for ni, nj in ((i, j + 1), (i + 1, j)):
                if ni < k and nj < k:
                    cost = int(rng.integers(5, 16))
                    a, b = grid_node(i, j), grid_node(ni, nj)
                    links.append(network.Link(len(links) + 1, a, b, cost))
                    links.append(network.Link(len(links) + 1, b, a, cost))
    return network.Network(links)


def congested_route(net: network.Network, rng: np.random.Generator, origin: str,
                    destination: str) -> network.Path:
    """Shortest route under base costs scaled by independent ``1 + |N(0, 0.5)|``."""

    congested = {
        lid: c * (1.0 + abs(rng.normal(0.0, 0.5))) for lid, c in net.base_costs().items()
    }
    route, _ = flows.shortest_path(net, congested, (origin, destination))
    return route


def setup_grid_online(seed: int, inputs: Path) -> OnlineInputs:
    """The grid and congested routes between OD pairs far apart on it.

    Every arrival picks an OD pair at least ``GRID_MIN_HOPS`` hops apart.
    """

    rng = np.random.default_rng(sub_seed(seed, "grid"))
    k = GRID_SIDE
    network.write_network(grid_network(k, rng), inputs / "grid_links.csv")
    net = network.load_network(inputs / "grid_links.csv")

    stream = []
    while len(stream) < GRID_ARRIVALS:
        oi, oj, di, dj = (int(v) for v in rng.integers(0, k, size=4))
        if abs(oi - di) + abs(oj - dj) < GRID_MIN_HOPS:
            continue
        route = congested_route(net, rng, grid_node(oi, oj), grid_node(di, dj))
        n = len(stream)
        stream.append(network.Observation(f"a{n:03d}", route, timestamp=float(n + 1)))
    network.write_observations(stream, inputs / "grid_obs.csv", header_comments=[
        f"synthetic {k}x{k} grid stream, seed {seed}"
    ])
    return OnlineInputs(net, network.load_observations(inputs / "grid_obs.csv", net))


def run_online(data: OnlineInputs, out: Path) -> RoundResult:
    """Fold the stream one arrival at a time, as ``run_monitor`` does."""

    res = RoundResult()
    costs = data.net.base_costs()
    priced = network.CapacitySpec.priced_only(l.id for l in data.net.links)
    state = learner.OnlineState({lid: 0.0 for lid in priced.priced_links()})
    for ob in data.observations:
        res.attempted += 1
        try:
            state = learner.online_update(state, ob, data.net, costs, priced)
        except Exception as exc:  # an operation that raises counts as failed
            res.failed += 1
            res.errors.append(f"{ob.agent_id}: {exc!r}")
            continue
        res.updates += 1
        if state.log[-1].skipped:
            res.failed += 1
    out.mkdir(parents=True, exist_ok=True)
    learner.save_state(state, out / "state.json")
    learner.write_online_log(state, out / "log.csv")
    return res


WORKLOADS = {
    "nd-batch": (setup_nd_batch, run_nd_batch),
    "grid-online": (setup_grid_online, run_online),
}
