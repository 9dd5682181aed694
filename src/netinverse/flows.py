"""Forward solvers: shortest paths and the capacitated multicommodity flow LP.

The shortest-path routine is the behavioral model every agent is assumed to
follow; the multicommodity LP generates ground-truth link flows and capacity
dual prices for simulation and recovery tests.  All functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Mapping, Sequence

from .errors import DataError, SolverError, UnreachableError
from .network import (
    CapacitySpec,
    DemandTable,
    LinkId,
    Network,
    NodeId,
    Path,
    PriceVector,
    _check_values,
    _format_float,
    _write_lines,
    path_cost,
)
from .simplex import LinearProgram, Status, solve

Commodity = tuple[NodeId, NodeId]


def shortest_path(
    net: Network,
    costs: Mapping[LinkId, float],
    od: tuple[NodeId, NodeId],
) -> tuple[Path, float]:
    """Minimum-cost simple path under nonnegative link costs.

    A route's cost is the floating-point sum of its link costs, added in
    route order from 0.0; the route returned has the least such cost, and
    the cost returned is that sum.  Ties are broken deterministically, but
    not by the smallest link-id sequence overall: each node is settled by
    the first label to reach it in (cost, link sequence) order, so a
    rounding difference on the way can decide a tie at the destination.
    """

    origin, destination = od
    if origin not in net.nodes or destination not in net.nodes:
        raise DataError(f"unknown node in OD pair {od!r}")
    if origin == destination:
        raise DataError(f"origin and destination coincide: {origin!r}")
    _check_values("cost", costs, [l.id for l in net.links])

    # label-setting with (cost, link sequence) lexicographic priority
    heap: list[tuple[float, tuple[LinkId, ...], NodeId]] = [(0.0, (), origin)]
    settled: set[NodeId] = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return Path(origin, destination, seq), cost
        for link in net.outgoing(node):
            if link.head in settled:
                continue
            heapq.heappush(heap, (cost + costs[link.id], seq + (link.id,), link.head))
    raise UnreachableError(f"no route from {origin!r} to {destination!r}")


@dataclass(frozen=True)
class FlowSolution:
    """Optimal multicommodity flows with capacity dual prices.

    ``flows`` maps (commodity, link id) to the flow of that OD pair's demand
    on that link; ``duals`` holds one nonnegative price per capacitated link
    (zero when the link is strictly below capacity).
    """

    flows: dict[tuple[Commodity, LinkId], float]
    duals: PriceVector
    total_cost: float

    def link_flow(self, link_id: LinkId) -> float:
        return sum(v for (_, lid), v in self.flows.items() if lid == link_id)

    def commodity_flows(self, commodity: Commodity) -> PriceVector:
        return {lid: v for (m, lid), v in self.flows.items() if m == commodity}


def solve_multicommodity(
    net: Network,
    demand: DemandTable,
    caps: CapacitySpec,
) -> FlowSolution:
    """LP relaxation of minimum-cost multicommodity flow under shared capacities.

    Each OD pair is one commodity with its own conservation rows; capacity
    rows bundle the commodities.  Duals are read off the capacity rows and
    reported with the sign convention that makes them additive surcharges on
    link costs.
    """

    demand.validate_against(net)
    caps.validate_against(net)
    capacities = caps.numeric()

    commodities: list[tuple[Commodity, float]] = [
        ((e.origin, e.destination), e.flow) for e in demand.entries
    ]
    nodes = sorted(net.nodes)
    links = net.links

    lp = LinearProgram()
    var: dict[tuple[int, LinkId], int] = {}
    for m, ((o, d), flow) in enumerate(commodities):
        for link in links:
            var[(m, link.id)] = lp.add_variable(
                f"x[{m}][{link.id}]", cost=link.base_cost
            )
    for m, ((o, d), flow) in enumerate(commodities):
        # each node's balance row: +1 for the links out of it, -1 for those
        # into it, equal to the flow it supplies; the destination's row is
        # negated, inflow minus outflow equal to the flow, since every
        # right-hand side the kernel takes is >= 0
        rows: dict[NodeId, dict[int, float]] = {node: {} for node in nodes}
        for link in links:
            rows[link.tail][var[(m, link.id)]] = 1.0
            rows[link.head][var[(m, link.id)]] = -1.0
        rows[d] = {j: -a for j, a in rows[d].items()}
        for node in nodes:
            rhs = flow if node in (o, d) else 0.0
            lp.add_constraint(rows[node], "=", rhs, name=f"balance[{m}][{node}]")
    cap_rows: dict[LinkId, int] = {}
    for link_id in sorted(capacities):
        coeffs = {var[(m, link_id)]: 1.0 for m in range(len(commodities))}
        cap_rows[link_id] = lp.add_constraint(
            coeffs, "<=", capacities[link_id], name=f"cap[{link_id}]"
        )

    solution = solve(lp)
    if solution.status is Status.INFEASIBLE:
        raise SolverError("demand is infeasible under the given capacities")
    if solution.status is not Status.OPTIMAL:
        raise SolverError(f"multicommodity solve failed: {solution.status.value}")

    flows: dict[tuple[Commodity, LinkId], float] = {}
    for m, ((o, d), _) in enumerate(commodities):
        for link in links:
            value = solution.primal[f"x[{m}][{link.id}]"]
            if value > 1e-9:
                flows[((o, d), link.id)] = value
    duals = {lid: max(0.0, -solution.duals[row]) for lid, row in cap_rows.items()}
    return FlowSolution(flows, duals, solution.objective)


def assignment_shares(
    net: Network,
    agent_costs: Sequence[Mapping[LinkId, float]],
    ods: Sequence[tuple[NodeId, NodeId]],
    observed: Sequence[Path] | None = None,
) -> dict[Path, float]:
    """Fraction of agents assigned to each route under per-agent costs.

    Each agent takes their minimum-cost route.  When ``observed`` routes are
    supplied, an agent whose observed route ties the optimum (within 1e-7 of
    the minimum cost) is credited to that observed route; this is the
    validation reading of an assignment, where the model is asked whether it
    can reproduce the revealed choices, and cost ties are resolved in the
    data's favor rather than by an arbitrary rule.
    """

    if len(agent_costs) != len(ods):
        raise DataError("one OD pair per agent cost vector is required")
    if observed is not None and len(observed) != len(agent_costs):
        raise DataError("one observed route per agent is required")
    counts: dict[Path, int] = {}
    for i, (costs, od) in enumerate(zip(agent_costs, ods)):
        best, best_cost = shortest_path(net, costs, od)
        choice = best
        if observed is not None:
            if abs(path_cost(net, costs, observed[i]) - best_cost) <= 1e-7:
                choice = observed[i]
        counts[choice] = counts.get(choice, 0) + 1
    total = len(agent_costs)
    return {p: c / total for p, c in sorted(counts.items(), key=lambda kv: kv[0].links)}


def write_flow_solution(
    solution: FlowSolution,
    flows_file: FilePath | str,
    duals_file: FilePath | str,
) -> None:
    """Export link flows (`link_id,commodity,flow`) and duals (`link_id,dual`), exactly."""

    lines = ["link_id,commodity,flow"]
    for (commodity, lid), value in sorted(
        solution.flows.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        lines.append(f"{lid},{commodity[0]}-{commodity[1]},{_format_float(value)}")
    _write_lines(flows_file, lines)
    lines = ["link_id,dual"]
    for lid in sorted(solution.duals):
        lines.append(f"{lid},{_format_float(solution.duals[lid])}")
    _write_lines(duals_file, lines)
