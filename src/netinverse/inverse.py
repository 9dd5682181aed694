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
from dataclasses import dataclass, replace
from typing import Iterable, Literal

import numpy as np

from .errors import DataError, InconsistentObservation, SolverError
from .network import (
    CapacitySpec,
    Link,
    LinkId,
    Network,
    NodeId,
    Path,
    PriceVector,
    path_cost,
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
    """What solving one inverse problem under a new prior needs besides the LPs."""

    priced_ids: list[LinkId]
    base: np.ndarray                        # each feas row's base cost, in link order
    priced_rows: np.ndarray                 # each priced link's feas row
    route_cost: float                       # the observed route's base cost
    route_priced: list[LinkId]              # the priced links on the route, in order
    deviation: list[int]                    # the e and f variables
    secondary: list[int]                    # the deviation set stage 2 minimises
    names: list[tuple[LinkId, str, str]]    # each priced link's e and f variable names


@dataclass
class InverseLPs:
    """One inverse problem's two stage LPs, kept for re-solves under other priors.

    Pass one handle to every call for one (route, subnetwork) group.  A call
    with the same network, route, subnetwork, adjustable links, costs and
    tie-break as the last checks only the new prior, writes it into the LPs'
    right-hand sides and re-solves them, which replays their last solve (see
    :mod:`netinverse.simplex`); any other call rebuilds them.
    """

    key: tuple | None = None
    stage1: LinearProgram | None = None
    stage2: LinearProgram | None = None
    layout: _Layout | None = None


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
    return _inverse(net, zero, zero.keys(), prior, observed, subnetwork, "f", lps)


def infer_dual_prices(
    net: Network,
    costs: PriceVector,
    priced: CapacitySpec,
    prior: PriceVector,
    observed: Path,
    subnetwork: frozenset[LinkId] | None = None,
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
    return _inverse(net, costs, priced.priced_links(), prior, observed, subnetwork, "e", lps)


def _inverse(
    net: Network,
    costs: PriceVector,
    adjustable: Iterable[LinkId],
    prior: PriceVector,
    observed: Path,
    subnetwork: frozenset[LinkId] | None,
    tie_break: Literal["e", "f"],
    lps: InverseLPs | None,
) -> InverseResult:
    """Build, or update, and solve the one inverse LP (see the module docstring).

    Links of the subnetwork in ``adjustable`` cost ``costs + prior - e + f``;
    the others keep ``costs``.  ``tie_break`` names the deviation set the
    second stage minimises.  The prior enters only the right-hand sides.
    """

    lps = lps if lps is not None else InverseLPs()
    key = (net, observed, subnetwork, tuple(adjustable), tie_break, costs)
    if lps.key != key:
        _rebuild(lps, key, prior)
    layout = lps.layout
    values = _prior_values(prior, layout.priced_ids)

    # right-hand sides: every feas[*] row, every nonneg[*] row, then tight
    rhs = np.concatenate((layout.base, values, (0.0,)))
    rhs[layout.priced_rows] += values
    tight = layout.route_cost
    for lid in layout.route_priced:
        tight += prior[lid]
    rhs[-1] = tight
    for lp in (lps.stage1, lps.stage2):
        lp.set_rhs(0, rhs)

    solution = _lexicographic_solve(lps, layout.deviation, layout.secondary)
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


def _prior_values(prior: PriceVector, priced_ids: list[LinkId]) -> np.ndarray:
    """The prior of each priced link; a missing, negative or non-finite one raises DataError."""

    try:
        values = np.array([prior[lid] for lid in priced_ids], dtype=float)
    except KeyError:
        values = None
    if values is None or not (np.isfinite(values).all() and (values >= 0).all()):
        for lid in priced_ids:  # name the first bad entry
            if lid not in prior:
                raise DataError(f"prior has no entry for link {lid}")
            if not math.isfinite(prior[lid]) or prior[lid] < 0:
                raise DataError(f"prior for link {lid} is negative or not finite: {prior[lid]}")
    return values


def _rebuild(lps: InverseLPs, key: tuple, prior: PriceVector) -> None:
    """Check the problem ``key`` names and build its two stage LPs and layout into ``lps``."""

    net, observed, subnetwork, adjustable, tie_break, costs = key
    validate_path(net, observed)
    links, nodes = _restrict(net, subnetwork)
    link_ids = {l.id for l in links}
    priced_ids = [lid for lid in adjustable if lid in link_ids]
    _prior_values(prior, priced_ids)
    for link in links:
        if link.id not in costs:
            raise DataError(f"no base cost for link {link.id}")
        if not 0.0 <= costs[link.id] < math.inf:
            raise DataError(f"base cost of link {link.id} is negative or not finite: "
                            f"{costs[link.id]}")

    row = {l.id: i for i, l in enumerate(links)}
    priced_set = set(priced_ids)
    # e[l] and f[l] of the n-th adjustable link are variables 2n and 2n + 1
    e_vars = list(range(0, 2 * len(priced_ids), 2))
    f_vars = [j + 1 for j in e_vars]
    layout = _Layout(
        priced_ids=priced_ids,
        base=np.array([costs[l.id] for l in links], dtype=float),
        priced_rows=np.array([row[lid] for lid in priced_ids], dtype=np.intp),
        route_cost=path_cost(net, costs, observed),
        route_priced=[lid for lid in observed.links if lid in priced_set],
        deviation=e_vars + f_vars,
        secondary=e_vars if tie_break == "e" else f_vars,
        names=[(lid, f"e[{lid}]", f"f[{lid}]") for lid in priced_ids],
    )
    stage1 = _build(links, nodes, priced_ids, observed)
    # stage 2 is stage 1 restricted to its optimal set: total deviation pinned
    stage2 = stage1.copy()
    stage2.add_constraint({j: 1.0 for j in layout.deviation}, "<=", 0.0, name="stage1")
    stage2.set_objective({j: 1.0 for j in layout.secondary})
    # the key keeps the costs as they are now: a caller may change its mapping later
    lps.key, lps.layout, lps.stage1, lps.stage2 = key[:-1] + (dict(costs),), layout, stage1, stage2


def _build(links: list[Link], nodes: list[NodeId], priced_ids: list[LinkId], observed: Path):
    """The stage-1 LP with every right-hand side 0, for ``_inverse`` to set."""

    lp = LinearProgram()
    e_var: dict[LinkId, int] = {}
    for lid in priced_ids:
        e_var[lid] = lp.add_variable(f"e[{lid}]", cost=1.0)
        lp.add_variable(f"f[{lid}]", cost=1.0)  # index e_var[lid] + 1
    y_var = {n: lp.add_variable(f"y[{n}]", free=True) for n in nodes}

    for link in links:
        # y[head] - y[tail] <= cost + prior - e + f  (potential feasibility)
        coeffs = {y_var[link.head]: 1.0, y_var[link.tail]: -1.0}
        if link.id in e_var:
            coeffs[e_var[link.id]] = 1.0
            coeffs[e_var[link.id] + 1] = -1.0
        lp.add_constraint(coeffs, "<=", 0.0, name=f"feas[{link.id}]")
    for lid in priced_ids:
        # posterior stays nonnegative: e - f <= prior
        lp.add_constraint({e_var[lid]: 1.0, e_var[lid] + 1: -1.0}, "<=", 0.0, name=f"nonneg[{lid}]")
    # observed route attains the potential difference (optimality)
    coeffs = {y_var[observed.destination]: 1.0, y_var[observed.origin]: -1.0}
    for lid in observed.links:
        if lid in e_var:
            coeffs[e_var[lid]] = coeffs.get(e_var[lid], 0.0) + 1.0
            coeffs[e_var[lid] + 1] = coeffs.get(e_var[lid] + 1, 0.0) - 1.0
    lp.add_constraint(coeffs, "=", 0.0, name="tight")
    return lp


def _lexicographic_solve(lps: InverseLPs, deviation: list[int], secondary: list[int]):
    """Minimize total deviation, then the given subset of deviation variables.

    The second stage restricts to the first stage's optimal set (total
    deviation pinned at its minimum) and minimizes the secondary sum alone,
    selecting a reproducible representative among alternative optima.  It is
    ``lps.stage1`` plus that pinning row, built with it and afterwards only
    given the new minimum, so both LPs keep their matrix and costs across the
    calls that reuse ``lps``.
    """

    first = solve(lps.stage1)
    if first.status is not Status.OPTIMAL or not secondary:
        return first
    lp = lps.stage2
    lp.set_rhs(lp.num_constraints - 1, first.objective)
    second = solve(lp)
    if second.status is not Status.OPTIMAL:
        return first
    # report the first-stage objective: the deviation metric, not the tie-break
    objective = sum(second.primal[lp.variable_name(j)] for j in deviation)
    return replace(second, objective=objective, pivots=first.pivots + second.pivots)
