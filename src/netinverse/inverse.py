"""Per-agent inverse shortest-path problems: one model, two uses.

Both public functions solve the L1 inverse shortest-path LP (Ahuja & Orlin,
*Oper. Res.* 49(5), 2001): given fixed base costs, a set of adjustable
links and a prior for them, find the adjustment nearest the prior in L1
under which an observed route is a minimum-cost route, with every adjusted
value kept nonnegative.  :func:`infer_link_costs` is the model with zero
base costs and every link adjustable (heterogeneous link costs);
:func:`infer_dual_prices` holds the base costs fixed and adjusts only the
priced links (capacity surcharges).

The LP is over per-link decrease variables ``e``, increase variables ``f``
and node potentials ``y``, each potential the difference ``y[n] - y'[n]`` of
two variables, since every LP variable is nonnegative.  Potentials are
feasible when ``y[head] - y[tail]`` never exceeds the adjusted cost of a
link.  The observed route is optimal when each of its links holds that with
equality: summed along the route, the rows telescope to "its adjusted cost
is ``y[destination] - y[origin]``", a lower bound on every route's cost.

Alternative optima are pervasive (any route made optimal is typically made
*tied*), so the model, not the solver, picks the answer, in three
lexicographic stages.  Stage 1 minimises the total deviation.  Stage 2
minimises one deviation set among stage 1's optima: costs take the least
total increase ``f`` (perturbations stay on the observed route), prices the
least total decrease ``e`` (existing prices are preserved and competing
routes are priced up).  Stage 3 minimises ``sum_k (1 + k/n) (e_k + f_k)``
among stage 2's optima, where ``k`` is a link's 0-based position among the
``n`` adjustable links: among tied answers it moves the earlier links.
The three stages are the three objectives of one LP, which the kernel
minimises in order from one basis, fixing at zero each column an earlier
stage prices out (see :mod:`netinverse.simplex`).

When the observed route is already a shortest route under the base costs
plus the prior, ``e = f = 0`` at every optimum of every stage, and the
answer is the prior at deviation 0.  :func:`answer_at_prior` decides this
with one Dijkstra search, after the same checks the LP path makes, and the
learner (:mod:`netinverse.learner`) asks it before it asks for an LP.
:func:`infer_link_costs` and :func:`infer_dual_prices` always solve the LP.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterable, Literal

import numpy as np

from .errors import InconsistentObservation, SolverError
from .network import (
    CapacitySpec,
    LinkId,
    Network,
    NodeId,
    Path,
    PriceVector,
    _check_values,
    validate_path,
)
from .simplex import FEAS_TOL, LinearProgram, Status, solve

_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class InverseResult:
    """Outcome of one agent's inverse problem.

    ``posterior`` covers the adjustable link set (all links for the cost
    variant, the priced links for the price variant); ``objective`` is the
    total L1 deviation from the prior.
    """

    posterior: PriceVector
    objective: float


@dataclass(frozen=True)
class _Layout:
    """What solving one inverse problem under a new prior needs besides the LP."""

    priced_ids: list[LinkId]
    base: np.ndarray                        # each feas row's base cost, in link order
    priced_rows: np.ndarray                 # each priced link's feas row
    deviation: list[int]                    # the e and f variables
    names: list[tuple[LinkId, str, str]]    # each priced link's e and f variable names


@dataclass
class InverseLPs:
    """One inverse problem's LP, kept for re-solves under other priors.

    Pass one handle to every call for one route group.  A call with the
    same network, route, adjustable links, costs and tie-break as the last
    checks only the new prior, writes it into the LP's right-hand sides and
    re-solves it from its last optimal basis (see :mod:`netinverse.simplex`);
    any other call rebuilds it.
    """

    key: tuple | None = None
    lp: LinearProgram | None = None
    layout: _Layout | None = None


def _snap(value: float) -> float:
    return 0.0 if abs(value) < _SNAP_TOL else value


def _posterior(lid: LinkId, value: float) -> float:
    """A posterior value, clamped to 0 when it is negative by rounding only.

    The LP keeps each posterior ``>= 0`` to within ``FEAS_TOL``; a value that
    lies further below zero means the solve itself went wrong.
    """

    if value < -FEAS_TOL:
        raise SolverError(f"posterior for link {lid} is negative: {value:g}")
    return value if value >= _SNAP_TOL else 0.0


def answer_at_prior(
    net: Network,
    costs: PriceVector,
    adjustable: Iterable[LinkId],
    prior: PriceVector,
    observed: Path,
) -> InverseResult | None:
    """The inverse's answer without an LP, or ``None`` when it takes one.

    Links in ``adjustable`` cost ``costs + prior``, the others ``costs``, as
    in :func:`_inverse`.  When the observed route, summed in route order,
    costs no more than the shortest distance between its endpoints, the
    distances are feasible potentials at ``e = f = 0``, and every optimum of
    every stage is the prior: the result is the prior, through the same
    clamp as an LP posterior, at objective 0.  Otherwise, including a route
    longer only by rounding, this returns ``None``.  The route, the base
    costs and the prior are checked first, in that order and with the
    messages of the LP path; a price caller checks its
    :class:`~netinverse.network.CapacitySpec` itself.
    """

    validate_path(net, observed)
    _check_values("base cost", costs, [l.id for l in net.links])
    adjustable = list(adjustable)
    _check_values("prior", prior, adjustable)
    adjusted = {l.id: costs[l.id] for l in net.links}
    for lid in adjustable:
        adjusted[lid] += prior[lid]
    route = 0.0
    for lid in observed.links:
        route += adjusted[lid]
    if route > _distance(net, adjusted, observed.origin, observed.destination):
        return None
    return InverseResult({lid: _posterior(lid, prior[lid]) for lid in adjustable}, 0.0)


def _distance(net: Network, costs: PriceVector, origin: NodeId, destination: NodeId) -> float:
    """The least ``costs`` of a route from ``origin`` to ``destination`` (Dijkstra)."""

    best = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        dist, node = heapq.heappop(heap)
        if node == destination:
            return dist
        if dist > best[node]:
            continue  # a stale entry: the node was reached more cheaply
        for link in net.outgoing(node):
            reach = dist + costs[link.id]
            if reach < best.get(link.head, math.inf):
                best[link.head] = reach
                heapq.heappush(heap, (reach, link.head))
    return math.inf


def infer_link_costs(
    net: Network,
    prior: PriceVector,
    observed: Path,
    lps: InverseLPs | None = None,
) -> InverseResult:
    """L1-nearest nonnegative cost vector to ``prior`` rationalizing ``observed``.

    The observed route need only tie the optimum; strict preference is not
    required (and is unattainable at an L1 minimum).  This problem is always
    feasible, because costs along the observed route can be driven to zero.
    ``lps`` keeps the LPs for re-solves under other priors (see
    :class:`InverseLPs`).
    """

    zero = {l.id: 0.0 for l in net.links}
    return _inverse(net, zero, zero.keys(), prior, observed, "f", lps)


def infer_dual_prices(
    net: Network,
    costs: PriceVector,
    priced: CapacitySpec,
    prior: PriceVector,
    observed: Path,
    lps: InverseLPs | None = None,
) -> InverseResult:
    """L1-nearest nonnegative prices on the priced links rationalizing ``observed``.

    Base costs are fixed and known; only the surcharges on the priced links
    move.  Raises :class:`InconsistentObservation` when no nonnegative
    pricing can make the observed route optimal (for example, a route that
    is strictly longer than an alternative sharing no priced link).
    ``lps`` keeps the LPs for re-solves under other priors (see
    :class:`InverseLPs`).
    """

    priced.validate_against(net)
    return _inverse(net, costs, priced.priced_links(), prior, observed, "e", lps)


def _inverse(
    net: Network,
    costs: PriceVector,
    adjustable: Iterable[LinkId],
    prior: PriceVector,
    observed: Path,
    tie_break: Literal["e", "f"],
    lps: InverseLPs | None,
) -> InverseResult:
    """Build, or update, and solve the one inverse LP (see the module docstring).

    Links in ``adjustable`` cost ``costs + prior - e + f``; the others keep
    ``costs``.  ``tie_break`` names the deviation set the second stage
    minimises.  The prior enters only the right-hand sides.
    """

    lps = lps if lps is not None else InverseLPs()
    key = (net, observed, tuple(adjustable), tie_break, costs)
    if lps.key != key:
        _rebuild(lps, key)
    layout = lps.layout
    _check_values("prior", prior, layout.priced_ids)
    values = np.array([prior[lid] for lid in layout.priced_ids], dtype=float)

    # right-hand sides: every feas[*] row, then every nonneg[*] row
    rhs = np.concatenate((layout.base, values))
    rhs[layout.priced_rows] += values
    lps.lp.set_rhs(0, rhs)

    solution = _lexicographic_solve(lps)
    if solution.status is Status.INFEASIBLE:
        raise InconsistentObservation(
            f"route {observed.links} cannot be rationalized by pricing links {layout.priced_ids}"
        )
    if solution.status is not Status.OPTIMAL:
        raise SolverError(f"inverse problem failed: {solution.status.value}")

    primal = solution.primal
    posterior = {
        lid: _posterior(lid, prior[lid] - primal[e_name] + primal[f_name])
        for lid, e_name, f_name in layout.names
    }
    return InverseResult(posterior, _snap(solution.objective))


def _rebuild(lps: InverseLPs, key: tuple) -> None:
    """Check the problem ``key`` names and build its LP and layout into ``lps``."""

    net, observed, adjustable, tie_break, costs = key
    validate_path(net, observed)
    priced_ids = list(adjustable)
    _check_values("base cost", costs, [l.id for l in net.links])

    row = {l.id: i for i, l in enumerate(net.links)}
    # e[l] and f[l] of the n-th adjustable link are variables 2n and 2n + 1
    e_vars = list(range(0, 2 * len(priced_ids), 2))
    f_vars = [j + 1 for j in e_vars]
    layout = _Layout(
        priced_ids=priced_ids,
        base=np.array([costs[l.id] for l in net.links], dtype=float),
        priced_rows=np.array([row[lid] for lid in priced_ids], dtype=np.intp),
        deviation=e_vars + f_vars,
        names=[(lid, f"e[{lid}]", f"f[{lid}]") for lid in priced_ids],
    )
    lp = _build(net, priced_ids, observed)
    lp.add_objective({j: 1.0 for j in (e_vars if tie_break == "e" else f_vars)})
    # e[l] and f[l] of the k-th adjustable link weigh 1 + k/n
    lp.add_objective({j: 1.0 + (j // 2) / len(priced_ids) for j in layout.deviation})
    # the key keeps the costs as they are now: a caller may change its mapping later
    lps.key, lps.layout, lps.lp = key[:-1] + (dict(costs),), layout, lp


def _build(net: Network, priced_ids: list[LinkId], observed: Path):
    """The LP with stage 1's objective and every right-hand side 0, for ``_inverse`` to set.

    Each link's ``feas`` row is ``=`` on the observed route and ``<=`` off it.
    """

    lp = LinearProgram()
    e_var: dict[LinkId, int] = {}
    for lid in priced_ids:
        e_var[lid] = lp.add_variable(f"e[{lid}]", cost=1.0)
        lp.add_variable(f"f[{lid}]", cost=1.0)  # index e_var[lid] + 1
    y_var: dict[NodeId, int] = {}
    # the potential of n is y[n] - y'[n]: one column y[n] >= 0 per node has the
    # same optima, but longer pivot paths (152 against 194 on the 8x8 grid curve)
    for n in sorted(net.nodes):
        y_var[n] = lp.add_variable(f"y[{n}]")
        lp.add_variable(f"y'[{n}]")  # index y_var[n] + 1

    for link in net.links:
        # y[head] - y[tail] <= cost + prior - e + f  (potential feasibility)
        head, tail = y_var[link.head], y_var[link.tail]
        coeffs = {head: 1.0, head + 1: -1.0, tail: -1.0, tail + 1: 1.0}
        if link.id in e_var:
            coeffs[e_var[link.id]] = 1.0
            coeffs[e_var[link.id] + 1] = -1.0
        sense = "=" if link.id in observed.links else "<="  # = makes the route optimal
        lp.add_constraint(coeffs, sense, 0.0, name=f"feas[{link.id}]")
    for lid in priced_ids:
        # posterior stays nonnegative: e - f <= prior
        lp.add_constraint({e_var[lid]: 1.0, e_var[lid] + 1: -1.0}, "<=", 0.0, name=f"nonneg[{lid}]")
    return lp


def _lexicographic_solve(lps: InverseLPs):
    """Solve the three stages, each among the optima of the one before.

    The result is stage 3's, with stage 1's objective: the deviation metric,
    not the tie-break.
    """

    solution = solve(lps.lp)
    if solution.status is not Status.OPTIMAL:
        return solution
    objective = sum(solution.primal[lps.lp.variable_name(j)] for j in lps.layout.deviation)
    return replace(solution, objective=objective)
