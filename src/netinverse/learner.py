"""Fixed-point and online learning of shared network state from agent routes.

Batch mode repeatedly solves one inverse problem per agent against a common
prior and replaces the prior with the weighted mean of the agents'
posteriors, until the fixed point is reached.  One loop serves both models;
they differ in the inverse problem solved and in the stopping rule:

* :func:`estimate_costs` learns heterogeneous link costs; it stops when the
  weighted posterior mean agrees with the prior componentwise within the
  tolerance (the fixed-point residual).
* :func:`recover_prices` learns shared capacity dual prices; it stops when
  every agent's posterior agrees with the prior within the tolerance, which
  is the stronger condition the price model promises at convergence (all
  agents end up homogeneous).

Online mode (:func:`online_update`) processes one observation at a time and
promotes each posterior to be the next prior, which makes the current state
track regime changes revealed by newly observed routes.

Agents whose observations are identical share one inverse solve per
iteration; results depend only on (prior, route), so grouping changes
nothing but the run time.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path as FilePath
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DataError, InconsistentObservation, NoUsableObservations
from .inverse import (
    InverseLPs,
    InverseResult,
    answer_at_prior,
    infer_dual_prices,
    infer_link_costs,
)
from .network import (
    CapacitySpec,
    LinkId,
    Network,
    Observation,
    Path,
    PriceVector,
    _check_values,
    _format_float,
    _write_lines,
    _writing,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FixedPointTrace:
    """Prior sequence and terminal per-agent posteriors of one batch run.

    ``final_gap`` is the stopping residual: for cost estimation the largest
    componentwise move of the prior in the last iteration, for price
    recovery the largest deviation of any agent's posterior from the prior
    (an upper bound on the prior move).  The agents of one route group share
    one read-only posterior.
    """

    priors: tuple[PriceVector, ...]
    per_agent_posteriors: dict[str, Mapping[LinkId, float]]
    iterations: int
    converged: bool
    final_gap: float
    skipped_agents: tuple[str, ...] = ()

    def final_prior(self) -> PriceVector:
        return dict(self.priors[-1])


@dataclass(frozen=True)
class OnlineLogEntry:
    update_index: int
    agent_id: str
    timestamp: float | None
    objective: float
    prices_after: PriceVector
    skipped: bool = False


@dataclass(frozen=True)
class OnlineState:
    """Resumable state of the online monitor: current prices plus an audit log."""

    prices: PriceVector
    update_count: int = 0
    last_timestamp: float | None = None
    log: tuple[OnlineLogEntry, ...] = ()

    def __post_init__(self) -> None:
        _check_values("online price", self.prices, self.prices)


def _group(observations: Sequence[Observation]) -> dict[Path, list[Observation]]:
    """Observations by route, in first-seen order.

    Each group is keyed by its first observation's ``Path``.  The grouping
    itself keys by the route's fields, plain tuples and strings, so that no
    observation hashes or compares a ``Path`` dataclass.
    """

    groups: dict[tuple, list[Observation]] = {}
    for ob in observations:
        path = ob.path
        groups.setdefault((path.links, path.origin, path.destination), []).append(ob)
    return {obs[0].path: obs for obs in groups.values()}


def _weighted_mean(
    results: Sequence[InverseResult],
    weights: Sequence[float],
    link_ids: Sequence[LinkId],
) -> PriceVector:
    total = sum(weights)
    return {
        lid: sum(w * r.posterior[lid] for r, w in zip(results, weights)) / total
        for lid in link_ids
    }


def _mean_moved(
    prior: PriceVector, mean: PriceVector, results: Sequence[InverseResult]
) -> float:
    """Cost stopping rule: the largest componentwise move of the prior."""

    return max(abs(mean[lid] - prior[lid]) for lid in mean)


def _agents_off_prior(
    prior: PriceVector, mean: PriceVector, results: Sequence[InverseResult]
) -> float:
    """Price stopping rule: the largest deviation of any agent's posterior from the prior."""

    return max(abs(res.posterior[lid] - prior[lid]) for res in results for lid in mean)


def _fixed_point(
    observations: Sequence[Observation],
    link_ids: Sequence[LinkId],
    inverse: Callable[[PriceVector, Path, InverseLPs], InverseResult],
    prior0: PriceVector,
    tol: float,
    max_iter: int,
    gap: Callable[[PriceVector, PriceVector, Sequence[InverseResult]], float],
) -> FixedPointTrace:
    """Iterate the weighted mean of per-group posteriors until ``gap < tol``.

    ``inverse(prior, route, lps)`` solves one group's inverse problem.  Each
    group gets its own :class:`~netinverse.inverse.InverseLPs` for the run:
    only the prior changes between iterations, and it enters the group's LPs
    only through their right-hand sides, so the LPs are built at the first
    call that needs one and each re-solve starts from the last one's optimal
    basis, with the results fresh LPs give, to rounding.  Where that basis
    stays feasible, as in most iterations, the re-solve takes no pivot, and
    from the second such re-solve on it reads the basis's recorded pricing
    instead of pricing again (see :mod:`netinverse.simplex`).  A call
    answered by :func:`~netinverse.inverse.answer_at_prior` builds none.  The
    handles are dropped on return.  An observation whose agent id repeats
    raises :class:`~netinverse.errors.DataError` before any solve, and a
    ``prior0`` entry for a link not in ``link_ids`` raises it after the first
    pass's checks.  Groups the inverse finds inconsistent under ``prior0``
    are dropped, reported and logged; a batch with nothing left raises
    :class:`~netinverse.errors.NoUsableObservations`.
    """

    if not tol > 0:
        raise DataError("tol must be positive")
    if max_iter < 1:
        raise DataError("max_iter must be at least 1")
    if not observations:
        raise NoUsableObservations("no observations supplied")
    if len({ob.agent_id for ob in observations}) < len(observations):  # one posterior each
        ids = sorted(ob.agent_id for ob in observations)
        repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise DataError(f"agent id {repeated!r} appears more than once in the batch")
    groups = _group(observations)
    routes = sorted(groups, key=lambda route: route.links)

    # the consistency pass solves every group under prior0, which is exactly
    # iteration 1's work: its results are reused there
    usable: list[tuple[Path, InverseLPs]] = []
    results: list[InverseResult] = []
    skipped: list[str] = []
    for route in routes:
        lps = InverseLPs()
        try:
            results.append(inverse(prior0, route, lps))
            usable.append((route, lps))
        except InconsistentObservation:
            skipped.extend(ob.agent_id for ob in groups[route])
    extra = sorted(set(prior0).difference(link_ids))
    if extra:
        raise DataError(f"initial prior has entries for links {extra}, which are not estimated")
    if not usable:
        raise NoUsableObservations("every observation was inconsistent with the priced links")
    if skipped:
        logger.warning(
            "%d of %d observations cannot be explained by pricing the "
            "designated links; skipped",
            len(skipped),
            len(observations),
        )
    weights = [sum(ob.weight for ob in groups[route]) for route, _ in usable]

    priors: list[PriceVector] = [prior0]
    converged = False
    for iteration in range(max_iter):
        prior = priors[-1]
        if iteration:
            results = [inverse(prior, route, lps) for route, lps in usable]
        mean = _weighted_mean(results, weights, link_ids)
        residual = gap(prior, mean, results)
        priors.append(mean)
        if residual < tol:
            converged = True
            break

    per_agent: dict[str, Mapping[LinkId, float]] = {}
    for (route, _), res in zip(usable, results):
        posterior = MappingProxyType(dict(res.posterior))
        for ob in groups[route]:
            per_agent[ob.agent_id] = posterior
    return FixedPointTrace(
        tuple(priors), per_agent, len(priors) - 1, converged, residual, tuple(sorted(skipped))
    )


def estimate_costs(
    observations: Sequence[Observation],
    net: Network,
    initial_prior: PriceVector,
    tol: float = 1e-3,
    max_iter: int = 1000,
) -> FixedPointTrace:
    """Learn per-agent link costs whose weighted mean is a fixed-point prior.

    Every iteration solves the cost inverse for each distinct observed route
    and replaces the prior with the flow-weighted mean of the posteriors.
    Convergence means the mean moved less than ``tol`` in any component, at
    which point each agent's observed route is optimal under that agent's
    posterior and the posteriors average back to the common prior.
    """

    zero = {l.id: 0.0 for l in net.links}
    return _fixed_point(
        observations,
        list(zero),
        lambda prior, route, lps: (
            answer_at_prior(net, zero, zero, prior, route)
            or infer_link_costs(net, prior, route, lps)
        ),
        dict(initial_prior),
        tol,
        max_iter,
        _mean_moved,
    )


def recover_prices(
    observations: Sequence[Observation],
    net: Network,
    costs: PriceVector,
    priced: CapacitySpec,
    initial_prior: PriceVector | None = None,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> FixedPointTrace:
    """Recover the shared dual prices of the priced links from observed routes.

    Starts from a zero prior unless one is supplied, iterates the weighted
    mean of per-agent posteriors, and stops once every agent's posterior
    matches the prior within ``tol`` (the homogeneous fixed point).
    Observations no nonnegative pricing can explain are dropped and
    reported; a batch with nothing left raises
    :class:`~netinverse.errors.NoUsableObservations`.
    """

    priced.validate_against(net)
    priced_ids = priced.priced_links()
    if not priced_ids:
        raise DataError("no links are priced")
    return _fixed_point(
        observations,
        priced_ids,
        lambda prior, route, lps: (
            answer_at_prior(net, costs, priced_ids, prior, route)
            or infer_dual_prices(net, costs, priced, prior, route, lps)
        ),
        {lid: 0.0 for lid in priced_ids} if initial_prior is None else dict(initial_prior),
        tol,
        max_iter,
        _agents_off_prior,
    )


def online_update(
    state: OnlineState,
    ob: Observation,
    net: Network,
    costs: PriceVector,
    priced: CapacitySpec,
) -> OnlineState:
    """Fold one observation into the online price state.

    The newly arrived agent's inverse problem is solved from the current
    prices and its posterior becomes the new common prior.  An observation
    that cannot be rationalized leaves the prices unchanged and is logged as
    skipped.  A route that is already a shortest route under the current
    prices takes no LP and leaves them unchanged, at deviation zero (see
    :func:`~netinverse.inverse.answer_at_prior`; a price below 1e-9 reads as
    0, as in every posterior).
    """

    priced.validate_against(net)
    try:
        result = answer_at_prior(
            net, costs, priced.priced_links(), state.prices, ob.path
        ) or infer_dual_prices(net, costs, priced, state.prices, ob.path)
        # a resumed state may price links beyond ``priced``: they keep their prices
        prices = {**state.prices, **result.posterior}
        objective, skipped = result.objective, False
    except InconsistentObservation:
        prices, objective, skipped = dict(state.prices), float("nan"), True
    entry = OnlineLogEntry(
        state.update_count + 1, ob.agent_id, ob.timestamp, objective, prices, skipped
    )
    return OnlineState(
        prices,
        state.update_count + 1,
        ob.timestamp if ob.timestamp is not None else state.last_timestamp,
        state.log + (entry,),
    )


def run_monitor(
    state: OnlineState,
    observations: Iterable[Observation],
    net: Network,
    costs: PriceVector,
    priced: CapacitySpec,
) -> OnlineState:
    """Replay an observation stream through :func:`online_update`, in order.

    Every observation is folded, whatever the state has seen before: resuming
    on a stream already folded into ``state`` folds it again, and the log's
    ``update_index`` continues from ``state.update_count``.
    """

    for ob in observations:
        state = online_update(state, ob, net, costs, priced)
    return state


# ---------------------------------------------------------------------------
# heterogeneity summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkPosteriorStats:
    mean: float
    std: float
    clusters: tuple[tuple[float, int], ...]  # (value, agent count), ascending


def summarize_heterogeneity(trace: FixedPointTrace) -> dict[LinkId, LinkPosteriorStats]:
    """Per-link mean, standard deviation, and value clusters of agent posteriors.

    The per-agent posteriors of a converged run concentrate on a small number
    of distinct values per link (at most one per route alternative); the
    cluster list exposes them exactly, and doubles as simulated draws for
    downstream taste-distribution estimation.
    """

    if not trace.per_agent_posteriors:
        raise DataError("trace carries no per-agent posteriors")
    link_ids = sorted(next(iter(trace.per_agent_posteriors.values())))
    out: dict[LinkId, LinkPosteriorStats] = {}
    n = len(trace.per_agent_posteriors)
    for lid in link_ids:
        values = sorted(p[lid] for p in trace.per_agent_posteriors.values())
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        clusters: list[tuple[float, int]] = []
        for v in values:
            if clusters and abs(v - clusters[-1][0]) <= 1e-9:
                clusters[-1] = (clusters[-1][0], clusters[-1][1] + 1)
            else:
                clusters.append((v, 1))
        out[lid] = LinkPosteriorStats(mean, var**0.5, tuple(clusters))
    return out


def write_heterogeneity(
    trace: FixedPointTrace,
    stats_file: FilePath | str,
    histogram_file: FilePath | str,
) -> None:
    stats = summarize_heterogeneity(trace)
    lines = ["link_id,mean,std"]
    for lid, st in sorted(stats.items()):
        lines.append(f"{lid},{_format_float(st.mean)},{_format_float(st.std)}")
    _write_lines(stats_file, lines)
    lines = ["link_id,value,count"]
    for lid, st in sorted(stats.items()):
        for value, count in st.clusters:
            lines.append(f"{lid},{_format_float(value)},{count}")
    _write_lines(histogram_file, lines)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_trace(trace: FixedPointTrace, directory: FilePath | str) -> None:
    """Write prior_trace.csv, agent_posteriors.csv, and summary.txt."""

    d = FilePath(directory)
    with _writing(d):
        d.mkdir(parents=True, exist_ok=True)
    lines = ["iteration,link_id,prior_value"]
    for n, prior in enumerate(trace.priors):
        for lid in sorted(prior):
            lines.append(f"{n},{lid},{_format_float(prior[lid])}")
    _write_lines(d / "prior_trace.csv", lines)

    lines = ["agent_id,link_id,value"]
    # agents sharing a posterior share its ",link_id,value" line tails
    tails: dict[int, list[str]] = {}
    for agent_id in sorted(trace.per_agent_posteriors):
        posterior = trace.per_agent_posteriors[agent_id]
        tail = tails.get(id(posterior))
        if tail is None:
            tail = [f",{lid},{_format_float(posterior[lid])}" for lid in sorted(posterior)]
            tails[id(posterior)] = tail
        if tail:
            lines.append(agent_id + ("\n" + agent_id).join(tail))
    _write_lines(d / "agent_posteriors.csv", lines)

    summary = [
        f"iterations: {trace.iterations}",
        f"converged: {str(trace.converged).lower()}",
        f"final_gap: {_format_float(trace.final_gap)}",
        f"skipped_observations: {len(trace.skipped_agents)}",
    ]
    _write_lines(d / "summary.txt", summary)


def save_state(state: OnlineState, path: FilePath | str) -> None:
    payload = {
        "prices": {str(lid): value for lid, value in sorted(state.prices.items())},
        "update_count": state.update_count,
        "last_timestamp": state.last_timestamp,
    }
    # write beside the target, then rename over it: a run killed mid-write
    # leaves the previous state file whole
    target = FilePath(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    with _writing(target):
        try:
            _write_lines(tmp, [json.dumps(payload, indent=2)], target)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)


def load_state(path: FilePath | str) -> OnlineState:
    """The state :func:`save_state` wrote; anything else is a :class:`DataError`.

    That includes a key repeated within one object and a price key that is
    not a link id as :func:`save_state` writes it (``"01"`` for link 1).
    """

    def number(value, what: str) -> float:
        if type(value) not in (int, float) or not math.isfinite(value):  # bool is no number
            raise ValueError(f"{what} is not finite or not a number: {value!r}")
        return float(value)

    def link(key: str) -> LinkId:
        lid = int(key)
        if str(lid) != key:
            raise ValueError(f"price key {key!r} is not written as link id {lid}")
        return lid

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        payload = json.loads(FilePath(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
        if not isinstance(payload, dict) or not isinstance(payload.get("prices"), dict):
            raise ValueError("expected a JSON object with a 'prices' object")
        count, stamp = payload.get("update_count", 0), payload.get("last_timestamp")
        if type(count) is not int or count < 0:
            raise ValueError(f"update_count is not a nonnegative integer: {count!r}")
        return OnlineState(
            {link(lid): number(v, f"price of link {lid}") for lid, v in payload["prices"].items()},
            count,
            None if stamp is None else number(stamp, "last_timestamp"),
        )
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read online state from {path}: {exc}") from None


def write_online_log(state: OnlineState, path: FilePath | str) -> None:
    lines = ["update_index,timestamp,agent_id,objective,link_id,prior_after"]
    for entry in state.log:
        ts = _format_float(entry.timestamp)
        obj = "skipped" if entry.skipped else _format_float(entry.objective)
        for lid in sorted(entry.prices_after):
            lines.append(
                f"{entry.update_index},{ts},{entry.agent_id},{obj},"
                f"{lid},{_format_float(entry.prices_after[lid])}"
            )
    _write_lines(path, lines)
