"""Correctness checks made apart from the program, on the files a round wrote.

Nothing here imports ``netinverse``: the checks parse the generated inputs
and the written outputs, find shortest paths with their own Dijkstra, and
compute inverse-problem minima and capacity duals with scipy's HiGHS on
formulations of their own (explicit prices and absolute deviations, where
the program uses split deviation variables and its own simplex).  Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import heapq
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

# The program writes values with nine significant digits.
PRINT_RTOL = 1e-8
SHORTEST_RTOL = 1e-7
HIGHS_RTOL = 1e-6
DUAL_ATOL = 1e-4


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_links(path: Path) -> dict[int, tuple[str, str, float]]:
    return {
        int(r["link_id"]): (r["start_node"], r["end_node"], float(r["cost"]))
        for r in _rows(path)
    }


def read_routes(path: Path) -> list[tuple[str, str, str, tuple[int, ...]]]:
    """(agent_id, origin, destination, links) per observation, in file order."""

    return [
        (r["agent_id"], r["origin"], r["destination"],
         tuple(int(t) for t in r["link_seq"].split(";")))
        for r in _rows(path)
    ]


def read_trace(directory: Path) -> tuple[list[dict[int, float]], dict[str, dict[int, float]]]:
    priors: dict[int, dict[int, float]] = defaultdict(dict)
    for r in _rows(directory / "prior_trace.csv"):
        priors[int(r["iteration"])][int(r["link_id"])] = float(r["prior_value"])
    posteriors: dict[str, dict[int, float]] = defaultdict(dict)
    for r in _rows(directory / "agent_posteriors.csv"):
        posteriors[r["agent_id"]][int(r["link_id"])] = float(r["value"])
    return [priors[n] for n in sorted(priors)], dict(posteriors)


def distances(links: dict[int, tuple[str, str, float]], costs: dict[int, float],
              origin: str) -> dict[str, float]:
    out: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for lid, (tail, head, _) in links.items():
        out[tail].append((head, lid))
    dist = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for head, lid in out[node]:
            nd = d + costs[lid]
            if nd < dist.get(head, float("inf")):
                dist[head] = nd
                heapq.heappush(heap, (nd, head))
    return dist


def route_is_shortest(links, costs, origin, destination, route) -> str | None:
    cost = sum(costs[lid] for lid in route)
    best = distances(links, costs, origin)[destination]
    if cost > best + SHORTEST_RTOL * max(1.0, abs(best)):
        return f"route {route} costs {cost:.9g}, shortest {origin}->{destination} is {best:.9g}"
    return None


def inverse_minimum(links, base: dict[int, float], priced: list[int], prior: dict[int, float],
                    origin: str, destination: str, route: tuple[int, ...]) -> float:
    """Least L1 move of nonnegative prices on ``priced`` making ``route`` shortest.

    Variables: prices p (>= 0), deviations t >= |p - prior|, free potentials y.
    With zero base costs and every link priced this is the cost inverse.
    """

    nodes = sorted({n for tail, head, _ in links.values() for n in (tail, head)})
    y = {n: k for k, n in enumerate(nodes)}
    p = {lid: len(nodes) + k for k, lid in enumerate(priced)}
    t = {lid: len(nodes) + len(priced) + k for k, lid in enumerate(priced)}
    n_var = len(nodes) + 2 * len(priced)
    rows, cols, vals, rhs = [], [], [], []

    def row(entries: dict[int, float], bound: float) -> None:
        r = len(rhs)
        for c, v in entries.items():
            rows.append(r)
            cols.append(c)
            vals.append(v)
        rhs.append(bound)

    for lid, (tail, head, _) in links.items():
        entries = {y[head]: 1.0, y[tail]: -1.0}
        if lid in p:
            entries[p[lid]] = -1.0
        row(entries, base[lid])
    for lid in priced:
        row({p[lid]: 1.0, t[lid]: -1.0}, prior[lid])
        row({p[lid]: -1.0, t[lid]: -1.0}, -prior[lid])
    a_ub = coo_matrix((vals, (rows, cols)), shape=(len(rhs), n_var))
    eq = np.zeros(n_var)
    eq[y[destination]] += 1.0
    eq[y[origin]] -= 1.0
    for lid in route:
        if lid in p:
            eq[p[lid]] -= 1.0
    c = np.zeros(n_var)
    c[[t[lid] for lid in priced]] = 1.0
    bounds = [(None, None)] * len(nodes) + [(0, None)] * (2 * len(priced))
    res = linprog(c, A_ub=a_ub.tocsr(), b_ub=rhs, A_eq=eq[None, :],
                  b_eq=[sum(base[lid] for lid in route)], bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the inverse of route {route}: {res.message}")
    return float(res.fun)


def capacity_duals(links, demand_file: Path, caps_file: Path) -> dict[int, float]:
    """Capacity prices of the min-cost multicommodity flow LP, from HiGHS."""

    demand = [(r["origin"], r["destination"], float(r["flow"])) for r in _rows(demand_file)]
    caps = {int(r["link_id"]): float(r["capacity"]) for r in _rows(caps_file)}
    lids = sorted(links)
    nodes = sorted({n for tail, head, _ in links.values() for n in (tail, head)})
    col = {(k, lid): k * len(lids) + j for k in range(len(demand)) for j, lid in enumerate(lids)}
    a_eq = np.zeros((len(demand) * len(nodes), len(col)))
    b_eq = np.zeros(len(demand) * len(nodes))
    for k, (origin, destination, flow) in enumerate(demand):
        for i, node in enumerate(nodes):
            r = k * len(nodes) + i
            b_eq[r] = flow if node == origin else -flow if node == destination else 0.0
            for lid in lids:
                tail, head, _ = links[lid]
                if tail == node:
                    a_eq[r, col[k, lid]] += 1.0
                if head == node:
                    a_eq[r, col[k, lid]] -= 1.0
    capped = sorted(caps)
    a_ub = np.zeros((len(capped), len(col)))
    for i, lid in enumerate(capped):
        for k in range(len(demand)):
            a_ub[i, col[k, lid]] = 1.0
    c = np.array([links[lid][2] for _ in demand for lid in lids])
    res = linprog(c, A_ub=a_ub, b_ub=[caps[lid] for lid in capped], A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the multicommodity flow LP: {res.message}")
    return {lid: -float(m) for lid, m in zip(capped, res.ineqlin.marginals)}


def _close(a: float, b: float, atol: float) -> bool:
    return abs(a - b) <= atol + PRINT_RTOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# nd-batch
# ---------------------------------------------------------------------------


def check_nd_batch(round_dir: Path, nd_tol: float, cost_tol: float) -> list[str]:
    inputs, out = round_dir / "inputs", round_dir / "out"
    errors: list[str] = []

    links = read_links(inputs / "nd_links.csv")
    base = {lid: c for lid, (_, _, c) in links.items()}
    priors, posteriors = read_trace(out / "nd_duals")
    final = priors[-1]
    if any(v != 0.0 for v in priors[0].values()):
        errors.append(f"nd_duals: first prior is {priors[0]}, not zero")
    for n, (before, after) in enumerate(zip(priors, priors[1:]), start=1):
        for lid, v in after.items():
            if v < before[lid] - PRINT_RTOL * max(1.0, abs(v)):
                errors.append(f"nd_duals: prior of link {lid} decreased at iteration {n}")
    for agent, post in posteriors.items():
        for lid, v in post.items():
            if not _close(v, final[lid], nd_tol):
                errors.append(
                    f"nd_duals: {agent} posterior {lid}={v:.9g} vs prior {final[lid]:.9g}"
                )
                break
    costs = {lid: c + final.get(lid, 0.0) for lid, c in base.items()}
    for route in {(o, d, seq) for _, o, d, seq in read_routes(inputs / "nd_obs.csv")}:
        problem = route_is_shortest(links, costs, *route)
        if problem:
            errors.append(f"nd_duals: {problem}")
    duals = capacity_duals(links, inputs / "nd_demand.csv", inputs / "nd_caps_800.csv")
    for lid, dual in duals.items():
        if abs(final[lid] - dual) > DUAL_ATOL:
            errors.append(f"nd_duals: link {lid} price {final[lid]:.9g}, HiGHS dual {dual:.9g}")

    four = read_links(inputs / "fourlink_links.csv")
    zero = {lid: 0.0 for lid in four}
    for kind in ("independent", "correlated"):
        name = f"costs_{kind}"
        priors, posteriors = read_trace(out / name)
        previous, final = priors[-2], priors[-1]
        by_route: dict[tuple, list[str]] = defaultdict(list)
        for agent, o, d, seq in read_routes(inputs / f"population_{kind}.csv"):
            by_route[(o, d, seq)].append(agent)
        for (o, d, seq), agents in sorted(by_route.items()):
            post = posteriors[agents[0]]
            if any(posteriors[a] != post for a in agents):
                errors.append(f"{name}: agents on route {seq} have different posteriors")
            if min(post.values()) < 0:
                errors.append(f"{name}: negative posterior {post} on route {seq}")
            problem = route_is_shortest(four, post, o, d, seq)
            if problem:
                errors.append(f"{name}: {problem}")
            move = sum(abs(post[lid] - previous[lid]) for lid in four)
            best = inverse_minimum(four, zero, sorted(four), previous, o, d, seq)
            if abs(move - best) > HIGHS_RTOL * max(1.0, best):
                errors.append(f"{name}: route {seq} moved {move:.9g}, HiGHS minimum {best:.9g}")
        n = len(posteriors)
        for lid in four:
            mean = sum(p[lid] for p in posteriors.values()) / n
            if abs(mean - final[lid]) > cost_tol:
                errors.append(f"{name}: posterior mean {mean:.9g} vs final prior {final[lid]:.9g}")
    return errors


# ---------------------------------------------------------------------------
# grid-online
# ---------------------------------------------------------------------------


def check_online(round_dir: Path, links_name: str, obs_name: str) -> list[str]:
    inputs, out = round_dir / "inputs", round_dir / "out"
    errors: list[str] = []
    links = read_links(inputs / links_name)
    base = {lid: c for lid, (_, _, c) in links.items()}
    priced = sorted(links)
    arrivals = read_routes(inputs / obs_name)
    log = _rows(out / "log.csv")
    if len(log) != len(arrivals) * len(priced):
        errors.append(f"log has {len(log)} rows, expected {len(arrivals)} x {len(priced)}")
        return errors
    updates = []
    for k in range(len(arrivals)):
        rows = log[k * len(priced):(k + 1) * len(priced)]
        prices = {int(r["link_id"]): float(r["prior_after"]) for r in rows}
        updates.append((rows[0]["objective"], prices))

    before = {lid: 0.0 for lid in priced}
    for k, ((agent, o, d, seq), (objective, after)) in enumerate(zip(arrivals, updates)):
        tag = f"update {k + 1} ({agent})"
        if min(after.values()) < 0:
            errors.append(f"{tag}: negative price {min(after.values()):.9g}")
        if objective != "skipped":
            costs = {lid: base[lid] + after[lid] for lid in priced}
            problem = route_is_shortest(links, costs, o, d, seq)
            if problem:
                errors.append(f"{tag}: {problem}")
            obj = float(objective)
            move = sum(abs(after[lid] - before[lid]) for lid in priced)
            scale = max(1.0, obj, max(after.values()))
            if abs(move - obj) > HIGHS_RTOL * scale:
                errors.append(f"{tag}: objective {obj:.9g}, price move {move:.9g}")
            best = inverse_minimum(links, base, priced, before, o, d, seq)
            if abs(best - obj) > HIGHS_RTOL * scale:
                errors.append(f"{tag}: objective {obj:.9g}, HiGHS {best:.9g}")
        before = after
        if len(errors) > 20:
            break

    state = json.loads((out / "state.json").read_text(encoding="utf-8"))
    if state["update_count"] != len(arrivals):
        errors.append(f"state holds {state['update_count']} updates, expected {len(arrivals)}")
    last = updates[-1][1]
    if sorted(int(k) for k in state["prices"]) != priced or any(
        not _close(v, last[int(k)], 0.0) for k, v in state["prices"].items()
    ):
        errors.append("state prices differ from the last log row")
    return errors
