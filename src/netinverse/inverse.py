"""Per-agent inverse shortest-path problems: one model, two uses.

Both public functions solve the L1 inverse shortest-path LP (Ahuja & Orlin,
*Oper. Res.* 49(5), 2001): given fixed base costs, a set of adjustable
links and a prior for them, find the adjustment nearest the prior in L1
under which an observed route is a minimum-cost route, with every adjusted
value kept nonnegative.  :func:`infer_link_costs` is the model with zero
base costs and every link adjustable (heterogeneous link costs);
:func:`infer_dual_prices` holds the base costs fixed and adjusts only the
priced links (capacity surcharges).

The LP is over node potentials ``y`` (free), per-link decrease variables
``e`` and increase variables ``f`` (nonnegative): potentials are feasible
when ``y[head] - y[tail]`` never exceeds the adjusted cost of a link, and
the observed route is forced to optimality by requiring its adjusted cost
to equal the potential difference between its endpoints.

Alternative optima are pervasive (any route made optimal is typically made
*tied*), so a deterministic representative matters.  A second solve pins it
lexicographically, minimising one deviation set among all minimum-deviation
solutions: costs take the least total increase ``f`` (perturbations stay on
the observed route), prices the least total decrease ``e`` (existing prices
are preserved and competing routes are priced up).  Remaining ties are
settled by the LP kernel's deterministic pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

from .errors import DataError, InconsistentObservation, SolverError
from .network import (
    CapacitySpec,
    LinkId,
    Network,
    NodeId,
    Path,
    PriceVector,
    path_cost,
    validate_path,
)
from .simplex import FEAS_TOL, LinearProgram, PivotMemo, Status, solve

_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class InverseResult:
    """Outcome of one agent's inverse problem.

    ``posterior`` covers the adjustable link set (all links for the cost
    variant, the priced links for the price variant); ``objective`` is the
    total L1 deviation from the prior; ``node_potentials`` are the shortest
    path potentials certifying optimality of the observed route.
    """

    posterior: PriceVector
    objective: float
    node_potentials: dict[NodeId, float]


def _restrict(net: Network, subnetwork: frozenset[LinkId] | None):
    links = [l for l in net.links if subnetwork is None or l.id in subnetwork]
    if not links:
        raise DataError("empty subnetwork")
    nodes = sorted({l.tail for l in links} | {l.head for l in links})
    return links, nodes


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


def infer_link_costs(
    net: Network,
    prior: PriceVector,
    observed: Path,
    subnetwork: frozenset[LinkId] | None = None,
    memo: PivotMemo | None = None,
) -> InverseResult:
    """L1-nearest nonnegative cost vector to ``prior`` rationalizing ``observed``.

    The observed route need only tie the optimum; strict preference is not
    required (and is unattainable at an L1 minimum).  This problem is always
    feasible, because costs along the observed route can be driven to zero.
    ``memo`` is passed to the LP solves (see :func:`_lexicographic_solve`).
    """

    zero = {l.id: 0.0 for l in net.links}
    return _inverse(net, zero, zero.keys(), prior, observed, subnetwork, "f", memo)


def infer_dual_prices(
    net: Network,
    costs: PriceVector,
    priced: CapacitySpec,
    prior: PriceVector,
    observed: Path,
    subnetwork: frozenset[LinkId] | None = None,
    memo: PivotMemo | None = None,
) -> InverseResult:
    """L1-nearest nonnegative prices on the priced links rationalizing ``observed``.

    Base costs are fixed and known; only the surcharges on the priced links
    move.  Raises :class:`InconsistentObservation` when no nonnegative
    pricing can make the observed route optimal (for example, a route that
    is strictly longer than an alternative sharing no priced link).
    ``memo`` is passed to the LP solves (see :func:`_lexicographic_solve`).
    """

    priced.validate_against(net)
    return _inverse(net, costs, priced.priced_links(), prior, observed, subnetwork, "e", memo)


def _inverse(
    net: Network,
    costs: PriceVector,
    adjustable: Iterable[LinkId],
    prior: PriceVector,
    observed: Path,
    subnetwork: frozenset[LinkId] | None,
    tie_break: Literal["e", "f"],
    memo: PivotMemo | None,
) -> InverseResult:
    """Build and solve the one inverse LP (see the module docstring).

    Links of the subnetwork in ``adjustable`` cost ``costs + prior - e + f``;
    the others keep ``costs``.  ``tie_break`` names the deviation set the
    second stage minimises.
    """

    validate_path(net, observed)
    links, nodes = _restrict(net, subnetwork)
    link_ids = {l.id for l in links}
    priced_ids = [lid for lid in adjustable if lid in link_ids]
    for lid in priced_ids:
        if lid not in prior:
            raise DataError(f"prior has no entry for link {lid}")
        if not math.isfinite(prior[lid]) or prior[lid] < 0:
            raise DataError(f"prior for link {lid} is negative or not finite: {prior[lid]}")
    for link in links:
        if link.id not in costs:
            raise DataError(f"no base cost for link {link.id}")

    lp = LinearProgram()
    e_var: dict[LinkId, int] = {}
    f_var: dict[LinkId, int] = {}
    for lid in priced_ids:
        e_var[lid] = lp.add_variable(f"e[{lid}]", cost=1.0)
        f_var[lid] = lp.add_variable(f"f[{lid}]", cost=1.0)
    y_var = {n: lp.add_variable(f"y[{n}]", lower=float("-inf")) for n in nodes}

    for link in links:
        # y[head] - y[tail] <= cost + prior - e + f  (potential feasibility)
        coeffs = {y_var[link.head]: 1.0, y_var[link.tail]: -1.0}
        rhs = costs[link.id]
        if link.id in e_var:
            coeffs[e_var[link.id]] = 1.0
            coeffs[f_var[link.id]] = -1.0
            rhs += prior[link.id]
        lp.add_constraint(coeffs, "<=", rhs, name=f"feas[{link.id}]")
    for lid in priced_ids:
        # posterior stays nonnegative: e - f <= prior
        lp.add_constraint(
            {e_var[lid]: 1.0, f_var[lid]: -1.0}, "<=", prior[lid], name=f"nonneg[{lid}]"
        )
    # observed route attains the potential difference (optimality)
    coeffs = {y_var[observed.destination]: 1.0, y_var[observed.origin]: -1.0}
    rhs = path_cost(net, costs, observed)
    for lid in observed.links:
        if lid in e_var:
            coeffs[e_var[lid]] = coeffs.get(e_var[lid], 0.0) + 1.0
            coeffs[f_var[lid]] = coeffs.get(f_var[lid], 0.0) - 1.0
            rhs += prior[lid]
    lp.add_constraint(coeffs, "=", rhs, name="tight")

    deviation = [e_var[lid] for lid in priced_ids] + [f_var[lid] for lid in priced_ids]
    secondary = e_var if tie_break == "e" else f_var
    solution = _lexicographic_solve(lp, deviation, [secondary[lid] for lid in priced_ids], memo)
    if solution.status is Status.INFEASIBLE:
        raise InconsistentObservation(
            f"route {observed.links} cannot be rationalized by pricing links {priced_ids}"
        )
    if solution.status is not Status.OPTIMAL:
        raise SolverError(f"inverse problem failed: {solution.status.value}")

    posterior = {
        lid: _posterior(
            lid, prior[lid] - solution.primal[f"e[{lid}]"] + solution.primal[f"f[{lid}]"]
        )
        for lid in priced_ids
    }
    potentials = {n: solution.primal[f"y[{n}]"] for n in nodes}
    return InverseResult(posterior, _snap(solution.objective), potentials)


def _lexicographic_solve(
    lp: LinearProgram, deviation: list[int], secondary: list[int], memo: PivotMemo | None
):
    """Minimize total deviation, then the given subset of deviation variables.

    The second stage restricts to the first stage's optimal set (total
    deviation pinned at its minimum) and minimizes the secondary sum alone,
    selecting a reproducible representative among alternative optima.
    Mutates ``lp``; callers construct a fresh program per solve.

    Both stages are solved with ``memo``.  Across the iterations of a fixed
    point, one agent group's two LPs keep their matrix and costs and change
    only their right-hand sides (the prior, and the stage-1 minimum in the
    second stage's extra row), so one memo per group lets every re-solve
    replay the pivot decisions of the last one while the new right-hand side
    leads to the same choices.  The results are the same with or without it.
    """

    first = solve(lp, memo)
    if first.status is not Status.OPTIMAL or not secondary:
        return first
    lp.add_constraint({j: 1.0 for j in deviation}, "<=", first.objective, name="stage1")
    lp.set_objective({j: 1.0 for j in secondary})
    second = solve(lp, memo)
    if second.status is not Status.OPTIMAL:
        return first
    # report the first-stage objective: the deviation metric, not the tie-break
    return type(second)(
        status=second.status,
        objective=sum(second.primal[lp.variable_name(j)] for j in deviation),
        primal=second.primal,
        duals=second.duals,
        dual_objective=second.dual_objective,
        pivots=first.pivots + second.pivots,
    )
