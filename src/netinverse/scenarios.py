"""Scenario generators: synthetic populations, flow sampling, and streams.

A scenario file is a flat ``key = value`` text format with optional
``[segment]`` sections (one per stream segment); ``#`` starts a comment.
``load_scenario`` reads each section through one table of keys, so a key it
does not know, or a key given twice, is an error rather than ignored or
overwritten; so is a key its kind does not read (see ``_KINDS``).  Kinds:

* ``COST_HETEROGENEITY``: draw per-agent perceived link costs from
  truncated-at-zero normals (optionally correlated across links) and record
  each agent's shortest route.
* ``FLOW_SAMPLING``: solve the capacitated multicommodity flow problem,
  decompose it into path flows, and draw routes with probability
  proportional to path flow.
* ``REGIME_STREAM``: concatenate flow samples from successive capacity
  regimes into one timestamped arrival stream (unit inter-arrival times).
* ``REPLAY``: synthetic gateway-to-gateway stream for networks whose node
  labels carry cardinal-direction prefixes (N/S/E/W): every step picks an
  origin and a destination direction, evaluates the four entry/exit pairs
  under randomly congested costs, and keeps the quickest.  Outputs are
  labelled synthetic.

All generators are deterministic given the scenario seed, which is recorded
in the header of every observation file written from them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path as FilePath
from typing import Any, Callable

import numpy as np

from .errors import DataError, UnreachableError
from .flows import Commodity, FlowSolution, shortest_path, solve_multicommodity
from .network import (
    CapacitySpec,
    DemandTable,
    LinkId,
    Network,
    NodeId,
    Observation,
    Path,
    PriceVector,
    _simple_paths,
    load_capacities,
    load_demand,
    load_network,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Segment:
    capacity_file: str
    count: int


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    network_file: str
    seed: int
    demand_file: str | None = None
    capacity_file: str | None = None
    samples: int | None = None
    cost_mean_default: float = 0.0
    cost_sd_default: float = 0.0
    cost_means: dict[LinkId, float] = field(default_factory=dict)
    cost_sds: dict[LinkId, float] = field(default_factory=dict)
    correlations: tuple[tuple[LinkId, LinkId, float], ...] = ()
    segments: tuple[Segment, ...] = ()
    steps: int = 37
    step_minutes: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DataError(f"unknown scenario kind {self.kind!r}")
        if self.seed < 0:
            raise DataError(f"bad value for 'seed': must be >= 0, got {self.seed}")
        # each value is named by its key in a scenario file
        means = {"mean": self.cost_mean_default}
        means.update((f"mean.{lid}", v) for lid, v in self.cost_means.items())
        for key, mean in means.items():
            if not math.isfinite(mean):
                raise DataError(f"bad value for {key!r}: means must be finite, got {mean}")
        sds = {"sd": self.cost_sd_default}
        sds.update((f"sd.{lid}", v) for lid, v in self.cost_sds.items())
        for key, sd in sds.items():
            if not 0.0 <= sd < math.inf:
                raise DataError(
                    f"bad value for {key!r}: standard deviations must be finite and >= 0, got {sd}"
                )
        for a, b, rho in self.correlations:
            if not -1.0 <= rho <= 1.0:
                raise DataError(f"bad value for 'correlation': {a},{b},{rho} is outside [-1, 1]")
        if self.samples is not None and self.samples <= 0:
            raise DataError(f"bad value for 'samples': must be positive, got {self.samples}")
        for key, value in {"steps": self.steps, "step_minutes": self.step_minutes}.items():
            if not 0 < value < math.inf:
                raise DataError(f"bad value for {key!r}: must be positive and finite, got {value}")
        for seg in self.segments:
            if seg.count < 0:
                raise DataError(f"bad value for 'count': must be >= 0, got {seg.count}")
        for key, name in _KINDS[self.kind][1].items():
            if getattr(self, name) in (None, ()):
                raise DataError(f"a {self.kind} scenario requires {key!r}")


def load_scenario(path: FilePath | str) -> ScenarioSpec:
    """Read a scenario file, each section through one table of keys.

    The table maps a key to its field of ``ScenarioSpec`` (in a ``[segment]``,
    of ``Segment``) and to its parser; a key left out keeps the field's default.
    ``mean.<link>`` and ``sd.<link>`` set one link, and each ``correlation``
    line adds one pair.  An unknown, repeated or missing key, a key the kind
    does not take, and a value the parser or the spec refuses name the file.
    """

    fp = FilePath(path)
    try:
        text = fp.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise DataError(f"cannot read scenario file {fp}: {exc}") from None

    def resolve(name: str) -> str:
        full = fp.parent / name  # an absolute name replaces the parent
        if not full.exists():
            raise DataError(f"{fp}: referenced file does not exist: {full}")
        return str(full)

    def pair(value: str) -> tuple[LinkId, LinkId, float]:
        a, b, rho = value.split(",")
        return int(a), int(b), float(rho)

    # key -> (field, parser); "mean." and "sd." stand for mean.<link> and sd.<link>
    main_keys: dict[str, tuple[str, Callable[[str], Any]]] = {
        "kind": ("kind", str), "network": ("network_file", resolve), "seed": ("seed", int),
        "demand": ("demand_file", resolve), "capacities": ("capacity_file", resolve),
        "samples": ("samples", int), "mean": ("cost_mean_default", float),
        "sd": ("cost_sd_default", float), "mean.": ("cost_means", float),
        "sd.": ("cost_sds", float), "correlation": ("correlations", pair),
        "steps": ("steps", int), "step_minutes": ("step_minutes", float),
    }
    segment_keys = {"capacities": ("capacity_file", resolve), "count": ("count", int)}
    main: dict[str, Any] = {}
    given: list[tuple[str, str]] = []  # (table key, key) of the main section's lines
    segments: list[dict[str, Any]] = []
    fields, table, keys = main, main_keys, given
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[segment]":
            segments.append({})
            fields, table, keys = segments[-1], segment_keys, []
            continue
        if "=" not in line:
            raise DataError(f"{fp}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        stem, dot, link = key.partition(".")
        if stem + dot not in table:
            raise DataError(f"{fp}: unknown key {key!r}")
        name, parse = table[stem + dot]
        try:
            parsed = parse(value)
            into, slot = (fields.setdefault(name, {}), int(link)) if dot else (fields, name)
        except ValueError as exc:
            raise DataError(f"{fp}: bad value for {key!r}: {exc}") from None
        if name == "correlations":
            parsed = fields.get(name, ()) + (parsed,)
        elif slot in into:
            raise DataError(f"{fp}: repeated key {key!r}")
        into[slot] = parsed
        keys.append((stem + dot, key))

    for fields, table, required in [(main, main_keys, ("kind", "network", "seed"))] + [
            (seg, segment_keys, ("capacities", "count")) for seg in segments]:
        missing = [key for key in required if table[key][0] not in fields]
        if missing:
            raise DataError(f"{fp}: missing required key {missing[0]!r}")
    try:
        spec = ScenarioSpec(**main, segments=tuple(Segment(**seg) for seg in segments))
    except DataError as exc:
        raise DataError(f"{fp}: {exc}") from None
    for stem, key in given + [("[segment]", "[segment]")] * bool(segments):
        if stem not in {"kind", "network", "seed", *_KINDS[spec.kind][1], *_KINDS[spec.kind][2]}:
            raise DataError(f"{fp}: a {spec.kind} scenario does not take {key!r}")
    return spec


# ---------------------------------------------------------------------------
# synthetic populations (perceived-cost heterogeneity)
# ---------------------------------------------------------------------------


#: an OD pair with more simple routes than this has each agent's route found by ``shortest_path``
_ROUTE_CAP = 64


def draw_perceived_costs(
    net: Network,
    spec: ScenarioSpec,
    n_agents: int,
    rng: np.random.Generator,
) -> list[PriceVector]:
    """Per-agent link costs (Python floats) from correlated normals, truncated at zero."""

    link_ids = [l.id for l in net.links]
    draws = _draw_cost_matrix(net, spec, n_agents, rng)
    return [dict(zip(link_ids, row)) for row in draws.tolist()]


def _draw_cost_matrix(
    net: Network, spec: ScenarioSpec, n_agents: int, rng: np.random.Generator
) -> np.ndarray:
    """``draw_perceived_costs`` as an array: one row per agent, one column per link of ``net``."""

    link_ids = [l.id for l in net.links]
    means = np.array(
        [spec.cost_means.get(lid, spec.cost_mean_default) for lid in link_ids]
    )
    sds = np.array([spec.cost_sds.get(lid, spec.cost_sd_default) for lid in link_ids])
    for lid, mean, sd in zip(link_ids, means, sds):
        if sd == 0 and mean < 0:
            raise DataError(f"link {lid}: degenerate distribution with negative mean")
    corr = np.eye(len(link_ids))
    index = {lid: k for k, lid in enumerate(link_ids)}
    named = {*spec.cost_means, *spec.cost_sds, *(lid for c in spec.correlations for lid in c[:2])}
    if not named <= index.keys():
        raise DataError(f"scenario names links {sorted(named - index.keys())} the network lacks")
    for a, b, rho in spec.correlations:
        corr[index[a], index[b]] = corr[index[b], index[a]] = rho
    cov = np.outer(sds, sds) * corr
    if np.min(np.linalg.eigvalsh(cov)) < -1e-10:
        raise DataError("correlation structure is not positive semidefinite")
    draws = rng.multivariate_normal(means, cov, size=n_agents, method="svd")
    return np.clip(draws, 0.0, None)


def simulate_population(spec: ScenarioSpec) -> list[Observation]:
    """Simulate agents with heterogeneous perceived costs; observe their routes."""

    if spec.kind != "COST_HETEROGENEITY":
        raise DataError(f"simulate_population requires COST_HETEROGENEITY, got {spec.kind}")
    net = load_network(spec.network_file)
    demand = load_demand(spec.demand_file, net)
    rng = np.random.default_rng(spec.seed)
    observations: list[Observation] = []
    routes: dict[tuple[LinkId, ...], Path] = {}  # agents on one route share its Path
    for entry in demand.entries:
        draws = _draw_cost_matrix(net, spec, int(round(entry.flow)), rng)
        for i, route in enumerate(_shortest_routes(net, draws, (entry.origin, entry.destination))):
            observations.append(Observation(f"{entry.origin}-{entry.destination}-{i:04d}",
                                            routes.setdefault(route.links, route)))
    return observations


def _shortest_routes(net: Network, draws: np.ndarray, od: tuple[NodeId, NodeId]) -> list[Path]:
    """``shortest_path``'s route for each agent, a row of link costs in ``draws``.

    Each of the OD pair's simple routes is costed for all agents at once by
    adding its links' costs in route order from 0.0, the additions that
    Dijkstra's labels make.  Costs are >= 0 and rounded addition is monotone,
    so ``shortest_path`` returns a route of least rounded cost, and where one
    route alone has it, that route.  A tie, a non-finite cost, an OD pair
    with no route or more than ``_ROUTE_CAP`` is left to ``shortest_path``
    itself, which breaks the tie and raises as it does for any caller.
    """

    n_agents = len(draws)
    choice = np.full(n_agents, -1)  # index into paths; -1 asks shortest_path
    paths = list(islice(_simple_paths(net, od), _ROUTE_CAP + 1)) if n_agents else []
    if 0 < len(paths) <= _ROUTE_CAP:
        column = {l.id: k for k, l in enumerate(net.links)}
        best = np.full(n_agents, np.inf)
        tied = np.zeros(n_agents, dtype=bool)
        cost = np.empty(n_agents)
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, as in Python
            for r, path in enumerate(paths):
                cost.fill(0.0)
                for lid in path.links:
                    cost += draws[:, column[lid]]
                tied |= cost == best
                less = cost < best
                tied[less] = False
                choice[less] = r
                np.minimum(best, cost, out=best)
        choice[tied | ~np.isfinite(draws).all(axis=1)] = -1
    link_ids = [l.id for l in net.links]
    return [
        paths[r] if r >= 0 else shortest_path(net, dict(zip(link_ids, draws[i].tolist())), od)[0]
        for i, r in enumerate(choice.tolist())
    ]


# ---------------------------------------------------------------------------
# flow sampling
# ---------------------------------------------------------------------------


def decompose_path_flows(
    net: Network, solution: FlowSolution
) -> dict[Commodity, dict[Path, float]]:
    """Split per-commodity link flows into path flows by bottleneck stripping.

    Repeatedly extracts the widest (maximum-bottleneck) route through the
    remaining flow and subtracts it.  Each strip exhausts at least one link,
    so the loop is finite.  Decompositions of a link-flow solution are not
    unique in general; the stripping order makes this one deterministic, and
    the result is logged for auditability.
    """

    out: dict[Commodity, dict[Path, float]] = {}
    for commodity in {m for (m, _) in solution.flows}:
        residual = {
            lid: v for (m, lid), v in solution.flows.items() if m == commodity and v > 1e-9
        }
        origin, destination = commodity
        paths: dict[Path, float] = {}
        while residual:
            route = _widest_route(net, residual, origin, destination)
            if route is None:
                leftover = sum(residual.values())
                if leftover > 1e-6:
                    raise DataError(
                        f"flow decomposition failure for {commodity}: {leftover:g} stranded"
                    )
                break
            bottleneck = min(residual[lid] for lid in route.links)
            paths[route] = paths.get(route, 0.0) + bottleneck
            for lid in route.links:
                residual[lid] -= bottleneck
                if residual[lid] <= 1e-9:
                    del residual[lid]
        out[commodity] = paths
        logger.debug("decomposed %s into %d paths", commodity, len(paths))
    return dict(sorted(out.items()))


def _widest_route(
    net: Network,
    residual: dict[LinkId, float],
    origin: NodeId,
    destination: NodeId,
) -> Path | None:
    """Maximum-bottleneck simple route through links with remaining flow."""

    best: dict[NodeId, float] = {origin: math.inf}
    back: dict[NodeId, tuple[NodeId, LinkId]] = {}
    frontier = [origin]
    while frontier:
        updated: list[NodeId] = []
        for node in frontier:
            for link in net.outgoing(node):
                if link.id not in residual:
                    continue
                width = min(best[node], residual[link.id])
                if width > best.get(link.head, 0.0) + 1e-12:
                    best[link.head] = width
                    back[link.head] = (node, link.id)
                    updated.append(link.head)
        frontier = updated
    if destination not in back:
        return None
    links: list[LinkId] = []
    node = destination
    while node != origin:
        prev, lid = back[node]
        links.append(lid)
        node = prev
    return Path(origin, destination, tuple(reversed(links)))


def sample_flow_observations(spec: ScenarioSpec) -> list[Observation]:
    """Draw observed routes with probability proportional to optimal path flows."""

    if spec.kind != "FLOW_SAMPLING":
        raise DataError(f"sample_flow_observations requires FLOW_SAMPLING, got {spec.kind}")
    net = load_network(spec.network_file)
    demand = load_demand(spec.demand_file, net)
    caps = load_capacities(spec.capacity_file, net)
    return _sample_from_flows(net, demand, caps, spec.samples, np.random.default_rng(spec.seed))


def _sample_from_flows(
    net: Network,
    demand: DemandTable,
    caps: CapacitySpec,
    count: int,
    rng: np.random.Generator,
    agent_prefix: str = "s",
) -> list[Observation]:
    solution = solve_multicommodity(net, demand, caps)
    decomposition = decompose_path_flows(net, solution)
    routes: list[Path] = []
    weights: list[float] = []
    for commodity in sorted(decomposition):
        for route in sorted(decomposition[commodity], key=lambda p: p.links):
            routes.append(route)
            weights.append(decomposition[commodity][route])
    if not routes:
        raise DataError("the demand carries no flow, so there is no route to sample")
    probabilities = np.array(weights) / sum(weights)
    picks = rng.choice(len(routes), size=count, p=probabilities)
    return [
        Observation(f"{agent_prefix}{i:04d}", routes[int(k)]) for i, k in enumerate(picks)
    ]


def build_regime_stream(spec: ScenarioSpec) -> list[Observation]:
    """Concatenate per-regime flow samples into one timestamped arrival stream."""

    if spec.kind != "REGIME_STREAM":
        raise DataError(f"build_regime_stream requires REGIME_STREAM, got {spec.kind}")
    net = load_network(spec.network_file)
    demand = load_demand(spec.demand_file, net)
    rng = np.random.default_rng(spec.seed)
    stream: list[Observation] = []
    for s, segment in enumerate(spec.segments):
        caps = load_capacities(segment.capacity_file, net)
        if segment.count == 0:
            continue
        sampled = _sample_from_flows(
            net, demand, caps, segment.count, rng, agent_prefix=f"r{s}_"
        )
        stream.extend(sampled)
    return [
        Observation(ob.agent_id, ob.path, ob.weight, timestamp=float(t + 1))
        for t, ob in enumerate(stream)
    ]


# ---------------------------------------------------------------------------
# synthetic gateway replay
# ---------------------------------------------------------------------------

_DIRECTIONS = ("N", "S", "E", "W")


def simulate_gateway_stream(spec: ScenarioSpec) -> list[Observation]:
    """Synthetic stream of quickest gateway-to-gateway routes under congestion.

    Every step draws an origin and a (different) destination direction,
    computes the quickest route for each of the four entry/exit gateway
    pairs under independently congested link costs, and keeps the quickest
    of the four.  Congestion multipliers ramp up over the horizon so that
    later observations reflect heavier loading.
    """

    if spec.kind != "REPLAY":
        raise DataError(f"simulate_gateway_stream requires REPLAY, got {spec.kind}")
    net = load_network(spec.network_file)
    gateways: dict[str, list[NodeId]] = {d: [] for d in _DIRECTIONS}
    for node in sorted(net.nodes):
        if node[0] in gateways and node[1:].isdigit():
            gateways[node[0]].append(node)
    for direction, nodes in gateways.items():
        if len(nodes) < 2:
            raise DataError(
                f"REPLAY network needs two {direction}* gateway nodes, found {nodes}"
            )
    rng = np.random.default_rng(spec.seed)
    base = net.base_costs()
    observations: list[Observation] = []
    for step in range(spec.steps):
        ramp = 0.9 * step / max(1, spec.steps - 1)
        congestion = {
            lid: 1.0 + max(0.0, rng.normal(ramp, 0.35)) for lid in sorted(base)
        }
        perceived = {lid: base[lid] * congestion[lid] for lid in base}
        o_dir, d_dir = rng.choice(len(_DIRECTIONS), size=2, replace=False)
        candidates = []
        for o in gateways[_DIRECTIONS[o_dir]]:
            for d in gateways[_DIRECTIONS[d_dir]]:
                try:
                    route, cost = shortest_path(net, perceived, (o, d))
                except UnreachableError:
                    continue
                candidates.append((cost, route.links, route))
        if not candidates:
            raise DataError(f"no gateway route available at step {step}")
        _, _, best = min(candidates)
        observations.append(
            Observation(f"q{step:03d}", best, timestamp=step * spec.step_minutes)
        )
    return observations


# kind -> (generator, {required key: its field}, other keys it takes besides kind, network, seed)
_KINDS: dict[str, tuple[Callable[[ScenarioSpec], list[Observation]], dict, tuple]] = {
    "COST_HETEROGENEITY": (simulate_population, {"demand": "demand_file"},
                           ("mean", "sd", "mean.", "sd.", "correlation")),
    "FLOW_SAMPLING": (sample_flow_observations, {
        "demand": "demand_file", "capacities": "capacity_file", "samples": "samples"}, ()),
    "REGIME_STREAM": (build_regime_stream, {"demand": "demand_file", "[segment]": "segments"}, ()),
    "REPLAY": (simulate_gateway_stream, {}, ("steps", "step_minutes")),
}


def generate_observations(spec: ScenarioSpec) -> tuple[list[Observation], list[str]]:
    """Run the generator of the scenario's kind; return (observations, header)."""

    header = [f"generator=pcg64 seed={spec.seed} kind={spec.kind}"]
    return _KINDS[spec.kind][0](spec), header + ["synthetic=true"] * (spec.kind == "REPLAY")
