"""Inverse shortest-path problems, checked against an independent oracle.

The oracle formulates the inverse problem directly over enumerated-path
optimality conditions (observed route's cost <= every alternative's cost)
and solves it with scipy's HiGHS backend, sharing neither formulation nor
solver with the code under test.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from netinverse import inverse
from netinverse.errors import DataError, InconsistentObservation, SolverError
from netinverse.flows import shortest_path
from netinverse.inverse import InverseLPs, answer_at_prior, infer_dual_prices, infer_link_costs
from netinverse.network import (
    CapacitySpec,
    Link,
    Network,
    Path,
    enumerate_paths,
    path_cost,
)
from netinverse.simplex import FEAS_TOL, Status, solve


def oracle_rows(net, costs, priced_ids, prior, observed):
    """The inverse problem's constraints over enumerated-path optimality conditions.

    The variables are each priced link's decrease u, then each one's
    increase v; a link's posterior is ``prior - u + v``.  Returns ``A_ub``
    and ``b_ub``: the observed route costs no more than any alternative, and
    every posterior stays nonnegative.
    """

    idx = {lid: k for k, lid in enumerate(priced_ids)}
    n = len(priced_ids)
    routes = enumerate_paths(net, (observed.origin, observed.destination), 1000)
    a_ub, b_ub = [], []
    for alt in routes:
        if alt.links == observed.links:
            continue
        row = np.zeros(2 * n)
        for lid in observed.links:
            if lid in idx:
                row[idx[lid]] -= 1.0  # a decrease on the observed route helps
                row[n + idx[lid]] += 1.0
        for lid in alt.links:
            if lid in idx:
                row[idx[lid]] += 1.0
                row[n + idx[lid]] -= 1.0
        obs_cost = path_cost(net, costs, observed) + sum(
            prior[lid] for lid in observed.links if lid in idx
        )
        alt_cost = path_cost(net, costs, alt) + sum(
            prior[lid] for lid in alt.links if lid in idx
        )
        a_ub.append(row)
        b_ub.append(alt_cost - obs_cost)
    for lid in priced_ids:  # posterior nonnegative: u - v <= prior
        row = np.zeros(2 * n)
        row[idx[lid]] = 1.0
        row[n + idx[lid]] = -1.0
        a_ub.append(row)
        b_ub.append(prior[lid])
    return np.array(a_ub), np.array(b_ub)


def oracle_price_objective(net, costs, priced_ids, prior, observed) -> float | None:
    """Independent L1 minimum for the price variant; None when infeasible."""

    a_ub, b_ub = oracle_rows(net, costs, priced_ids, prior, observed)
    res = linprog(np.ones(a_ub.shape[1]), A_ub=a_ub, b_ub=b_ub, method="highs")
    return float(res.fun) if res.success else None


def oracle_cost_objective(net, prior, observed) -> float:
    """Independent L1 minimum of the cost variant: every link priced, zero base costs."""

    zero = {l.id: 0.0 for l in net.links}
    objective = oracle_price_objective(net, zero, list(zero), prior, observed)
    assert objective is not None
    return objective


def oracle_lexicographic_posterior(net, costs, priced_ids, prior, observed, tie_break):
    """The three-stage answer (see :mod:`netinverse.inverse`), solved by HiGHS.

    Each stage minimises its objective over the oracle's constraints plus
    one row per earlier stage pinning that stage's objective at its minimum.
    """

    a_ub, b_ub = oracle_rows(net, costs, priced_ids, prior, observed)
    n = len(priced_ids)
    ones, zeros, rank = np.ones(n), np.zeros(n), 1.0 + np.arange(n) / n
    secondary = np.concatenate((ones, zeros) if tie_break == "e" else (zeros, ones))
    for c in (np.ones(2 * n), secondary, np.concatenate((rank, rank))):
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
        assert res.success
        a_ub, b_ub = np.vstack((a_ub, c)), np.append(b_ub, res.fun)
    return {lid: prior[lid] - res.x[k] + res.x[n + k] for k, lid in enumerate(priced_ids)}


class TestInferLinkCosts:
    def test_tied_route_keeps_prior(self, fourlink_net):
        prior = {i: 0.5 for i in range(1, 6)}
        result = infer_link_costs(fourlink_net, prior, Path("1", "4", (1, 4)))
        assert result.objective == 0.0
        assert result.posterior == prior

    def test_long_route_drops_crossing_link(self, fourlink_net):
        prior = {i: 0.5 for i in range(1, 6)}
        result = infer_link_costs(fourlink_net, prior, Path("1", "4", (1, 3, 5)))
        assert abs(result.objective - 0.5) < 1e-9
        assert result.posterior[3] == 0.0
        for lid in (1, 2, 4, 5):
            assert abs(result.posterior[lid] - 0.5) < 1e-9
        # afterwards all three routes tie at 1.0
        for links in [(1, 4), (2, 5), (1, 3, 5)]:
            cost = path_cost(fourlink_net, result.posterior, Path("1", "4", links))
            assert abs(cost - 1.0) < 1e-9

    def test_single_link(self):
        net = Network([Link(1, "a", "b", 2.0)])
        result = infer_link_costs(net, {1: 0.7}, Path("a", "b", (1,)))
        assert result.objective == 0.0 and result.posterior == {1: 0.7}

    def test_posterior_never_negative(self, fourlink_net):
        rng = np.random.default_rng(23)
        for _ in range(50):
            prior = {i: float(rng.uniform(0, 2)) for i in range(1, 6)}
            for links in [(1, 4), (2, 5), (1, 3, 5)]:
                result = infer_link_costs(fourlink_net, prior, Path("1", "4", links))
                assert all(v >= 0.0 for v in result.posterior.values())

    def test_idempotent(self, fourlink_net):
        rng = np.random.default_rng(31)
        for _ in range(20):
            prior = {i: float(rng.uniform(0, 2)) for i in range(1, 6)}
            first = infer_link_costs(fourlink_net, prior, Path("1", "4", (1, 3, 5)))
            second = infer_link_costs(
                fourlink_net, first.posterior, Path("1", "4", (1, 3, 5))
            )
            assert second.objective < 1e-9
            for lid in first.posterior:
                assert abs(second.posterior[lid] - first.posterior[lid]) < 1e-9

    def test_optimality_certificate(self, fourlink_net, nd_net):
        """The observed route's cost equals the optimum under the posterior."""

        rng = np.random.default_rng(47)
        cases = [
            (fourlink_net, ("1", "4")),
            (nd_net, ("1", "2")),
            (nd_net, ("4", "3")),
        ]
        for net, od in cases:
            routes = enumerate_paths(net, od, 100)
            for _ in range(5):
                prior = {l.id: float(rng.uniform(0.1, 3)) for l in net.links}
                for observed in routes:
                    result = infer_link_costs(net, prior, observed)
                    _, best = shortest_path(net, result.posterior, od)
                    observed_cost = path_cost(net, result.posterior, observed)
                    assert abs(observed_cost - best) < 1e-7

    def test_objective_equals_l1_distance(self, fourlink_net):
        rng = np.random.default_rng(53)
        for _ in range(20):
            prior = {i: float(rng.uniform(0, 2)) for i in range(1, 6)}
            result = infer_link_costs(fourlink_net, prior, Path("1", "4", (1, 3, 5)))
            l1 = sum(abs(prior[lid] - result.posterior[lid]) for lid in prior)
            assert abs(l1 - result.objective) < 1e-7

    def test_oracle_agreement(self, fourlink_net, toy_net, nd_net):
        rng = np.random.default_rng(61)
        cases = [
            (fourlink_net, ("1", "4")),
            (toy_net, ("O", "D")),
            (nd_net, ("1", "2")),
            (nd_net, ("1", "3")),
        ]
        for net, od in cases:
            routes = enumerate_paths(net, od, 100)
            for _ in range(4):
                prior = {l.id: float(rng.uniform(0.0, 3.0)) for l in net.links}
                for observed in routes:
                    mine = infer_link_costs(net, prior, observed).objective
                    oracle = oracle_cost_objective(net, prior, observed)
                    assert abs(mine - oracle) < 1e-7, (od, observed.links)

    def test_negative_prior_rejected(self, fourlink_net):
        prior = {i: 0.5 for i in range(1, 6)}
        prior[2] = -0.1
        with pytest.raises(DataError, match="negative"):
            infer_link_costs(fourlink_net, prior, Path("1", "4", (1, 4)))


class TestInferDualPrices:
    def test_parallel_routes_price_thresholds(self, toy_net, toy_priced):
        base = toy_net.base_costs()
        zero = {1: 0.0, 2: 0.0}
        cases = [
            ((1,), {1: 0.0, 2: 0.0}, 0.0),
            ((2,), {1: 1.0, 2: 0.0}, 1.0),
            ((3,), {1: 3.0, 2: 2.0}, 5.0),
        ]
        for links, expected, objective in cases:
            result = infer_dual_prices(
                toy_net, base, toy_priced, zero, Path("O", "D", links)
            )
            assert abs(result.objective - objective) < 1e-9
            for lid, value in expected.items():
                assert abs(result.posterior[lid] - value) < 1e-9

    def test_ties_resolved_toward_increases(self, toy_net, toy_priced):
        """At equal deviation, competing routes are priced up rather than the
        agent's own price reduced: prior (1.25, 0.5) on route 2 -> (1.5, 0.5)."""

        result = infer_dual_prices(
            toy_net,
            toy_net.base_costs(),
            toy_priced,
            {1: 1.25, 2: 0.5},
            Path("O", "D", (2,)),
        )
        assert abs(result.posterior[1] - 1.5) < 1e-9
        assert abs(result.posterior[2] - 0.5) < 1e-9
        assert abs(result.objective - 0.25) < 1e-9

    def test_price_deflation_when_route_contradicts_prior(self, toy_net, toy_priced):
        result = infer_dual_prices(
            toy_net,
            toy_net.base_costs(),
            toy_priced,
            {1: 5.0, 2: 2.0},
            Path("O", "D", (1,)),
        )
        assert abs(result.posterior[1] - 3.0) < 1e-9
        assert abs(result.posterior[2] - 2.0) < 1e-9
        assert abs(result.objective - 2.0) < 1e-9

    def test_benchmark_route8_deviation(self, nd_net, nd_priced):
        result = infer_dual_prices(
            nd_net,
            nd_net.base_costs(),
            nd_priced,
            {1: 0.0, 7: 0.0},
            Path("1", "2", (2, 18, 11)),
        )
        assert abs(result.objective - 3.0) < 1e-9
        assert abs(result.posterior[1] + result.posterior[7] - 3.0) < 1e-9
        assert result.posterior[1] >= -1e-12 and result.posterior[7] >= -1e-12

    def test_inconsistent_observation(self, toy_net):
        # only route 2's link is priced; the observed route costs 4 against an
        # unpriced alternative costing 1: no nonnegative pricing can fix that
        with pytest.raises(InconsistentObservation):
            infer_dual_prices(
                toy_net,
                toy_net.base_costs(),
                CapacitySpec.priced_only([2]),
                {2: 0.0},
                Path("O", "D", (3,)),
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_base_cost_rejected(self, toy_net, toy_priced, value):
        costs = {1: 1.0, 2: 2.0, 3: value}
        message = f"base cost of link 3 is negative or not finite: {value}"
        with pytest.raises(DataError, match=message):
            infer_dual_prices(toy_net, costs, toy_priced, {1: 0.0, 2: 0.0}, Path("O", "D", (1,)))

    def test_posterior_nonnegative_and_unpriced_untouched(self, nd_net, nd_priced):
        rng = np.random.default_rng(71)
        routes = enumerate_paths(nd_net, ("1", "3"), 100)
        solved = 0
        for _ in range(3):
            prior = {1: float(rng.uniform(0, 8)), 7: float(rng.uniform(0, 8))}
            for observed in routes:
                try:
                    result = infer_dual_prices(
                        nd_net, nd_net.base_costs(), nd_priced, prior, observed
                    )
                except InconsistentObservation:
                    # routes strictly dominated at equal surcharge (e.g. a
                    # longer route sharing the dominant one's priced links)
                    continue
                solved += 1
                assert set(result.posterior) == {1, 7}
                assert all(v >= 0.0 for v in result.posterior.values())
                l1 = sum(abs(prior[lid] - result.posterior[lid]) for lid in (1, 7))
                assert abs(l1 - result.objective) < 1e-7
        assert solved >= 12

    def test_idempotent(self, nd_net, nd_priced):
        result = infer_dual_prices(
            nd_net,
            nd_net.base_costs(),
            nd_priced,
            {1: 0.0, 7: 0.0},
            Path("1", "3", (2, 17, 8, 14, 16)),
        )
        again = infer_dual_prices(
            nd_net, nd_net.base_costs(), nd_priced, result.posterior,
            Path("1", "3", (2, 17, 8, 14, 16)),
        )
        assert again.objective < 1e-9
        for lid in result.posterior:
            assert abs(again.posterior[lid] - result.posterior[lid]) < 1e-9

    def test_optimality_certificate(self, nd_net, nd_priced):
        rng = np.random.default_rng(83)
        base = nd_net.base_costs()
        for od in [("1", "2"), ("1", "3"), ("4", "2"), ("4", "3")]:
            routes = enumerate_paths(nd_net, od, 100)
            prior = {1: float(rng.uniform(0, 4)), 7: float(rng.uniform(0, 4))}
            for observed in routes:
                try:
                    result = infer_dual_prices(nd_net, base, nd_priced, prior, observed)
                except InconsistentObservation:
                    continue
                surcharged = {
                    lid: base[lid] + result.posterior.get(lid, 0.0) for lid in base
                }
                _, best = shortest_path(nd_net, surcharged, od)
                observed_cost = path_cost(nd_net, surcharged, observed)
                assert abs(observed_cost - best) < 1e-7

    def test_monotone_threshold_property(self, toy_net, toy_priced):
        """Prices act as lower-bound thresholds.

        For the agent on the most expensive route (whose rationalization
        needs only minimum-price conditions on the alternatives), raising
        the prior componentwise never increases the required deviation.
        """

        rng = np.random.default_rng(97)
        base = toy_net.base_costs()
        for _ in range(25):
            prior = {1: float(rng.uniform(0, 4)), 2: float(rng.uniform(0, 3))}
            bumped = {lid: v + float(rng.uniform(0, 1)) for lid, v in prior.items()}
            lo = infer_dual_prices(toy_net, base, toy_priced, prior, Path("O", "D", (3,)))
            hi = infer_dual_prices(toy_net, base, toy_priced, bumped, Path("O", "D", (3,)))
            assert hi.objective <= lo.objective + 1e-9

    def test_posterior_map_is_monotone(self, toy_net, toy_priced):
        """Componentwise larger priors give componentwise larger posteriors.

        This is the mechanism behind the monotone convergence of the batch
        price recovery when it starts from zero.
        """

        rng = np.random.default_rng(103)
        base = toy_net.base_costs()
        for links in [(1,), (2,), (3,)]:
            for _ in range(20):
                prior = {1: float(rng.uniform(0, 4)), 2: float(rng.uniform(0, 3))}
                bumped = {lid: v + float(rng.uniform(0, 1)) for lid, v in prior.items()}
                lo = infer_dual_prices(
                    toy_net, base, toy_priced, prior, Path("O", "D", links)
                )
                hi = infer_dual_prices(
                    toy_net, base, toy_priced, bumped, Path("O", "D", links)
                )
                for lid in (1, 2):
                    assert hi.posterior[lid] >= lo.posterior[lid] - 1e-9

    def test_oracle_agreement(self, toy_net, toy_priced, nd_net, nd_priced):
        rng = np.random.default_rng(101)
        cases = [
            (toy_net, toy_priced, ("O", "D")),
            (nd_net, nd_priced, ("1", "2")),
            (nd_net, nd_priced, ("1", "3")),
            (nd_net, nd_priced, ("4", "2")),
        ]
        for net, priced, od in cases:
            base = net.base_costs()
            priced_ids = priced.priced_links()
            routes = enumerate_paths(net, od, 100)
            for _ in range(3):
                prior = {lid: float(rng.uniform(0, 5)) for lid in priced_ids}
                for observed in routes:
                    oracle = oracle_price_objective(net, base, priced_ids, prior, observed)
                    try:
                        mine = infer_dual_prices(net, base, priced, prior, observed)
                    except InconsistentObservation:
                        assert oracle is None
                        continue
                    assert oracle is not None
                    assert abs(mine.objective - oracle) < 1e-7, (od, observed.links)


def grid(k: int, rng: np.random.Generator) -> Network:
    """A bidirectional k-by-k grid with integer costs 1-3, links numbered row by row."""

    links = []
    for r in range(k):
        for c in range(k):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < k and c2 < k:
                    cost = float(rng.integers(1, 4))
                    links.append((f"{r}.{c}", f"{r2}.{c2}", cost))
                    links.append((f"{r2}.{c2}", f"{r}.{c}", cost))
    return Network(Link(i + 1, a, b, cost) for i, (a, b, cost) in enumerate(links))


class TestTieBreak:
    """The model, not the pivot rule, picks the answer among tied optima.

    A grid from a zero prior with every link priced has many tied optima:
    the observed route, the grid's costliest simple route between opposite
    corners, can be made a shortest route by pricing up any of many sets of
    competing links.
    """

    K = 4

    @classmethod
    def problem(cls, variant):
        """A solve of one variant's inverse, and the arguments of its HiGHS answer."""

        net = grid(cls.K, np.random.default_rng(1))
        route = enumerate_paths(net, ("0.0", f"{cls.K - 1}.{cls.K - 1}"), 1000)[-1]
        ids = [l.id for l in net.links]
        costs, zero = net.base_costs(), dict.fromkeys(ids, 0.0)
        if variant == "price":
            priced = CapacitySpec.priced_only(ids)
            return (
                lambda: infer_dual_prices(net, costs, priced, zero, route),
                (net, costs, ids, zero, route, "e"),
            )
        return lambda: infer_link_costs(net, costs, route), (net, zero, ids, costs, route, "f")

    @pytest.mark.parametrize("variant", ["price", "cost"])
    def test_posterior_matches_highs_three_stage_solve(self, variant):
        infer, oracle_args = self.problem(variant)
        result = infer()
        assert result.objective > 0.0  # the prior does not explain the route
        oracle = oracle_lexicographic_posterior(*oracle_args)
        for lid, value in result.posterior.items():
            assert abs(value - oracle[lid]) < 1e-9, lid

    @pytest.mark.parametrize("variant", ["price", "cost"])
    def test_cold_stages_give_the_same_posterior_with_more_pivots(self, variant, monkeypatch):
        """Each stage as its own program, solved cold, answers as the one program does."""

        infer, _ = self.problem(variant)
        solved = []

        def recording(lp):
            solved.append((lp.copy(), solve(lp)))
            return solved[-1][1]

        monkeypatch.setattr(inverse, "solve", recording)
        infer()
        ((lp, one),) = solved
        objectives, pivots = [lp._objective, *lp._later], 0
        stage = lp.copy()
        stage._later = []
        for k, cost in enumerate(objectives):
            if k:
                # the stage before, plus a row pinning its objective at its minimum
                stage = stage.copy()
                pinned = {j: c for j, c in enumerate(objectives[k - 1]) if c}
                stage.add_constraint(pinned, "<=", max(0.0, solution.objective))
                stage.set_objective(dict(enumerate(cost)))
            solution = solve(stage)
            assert solution.status is Status.OPTIMAL
            pivots += solution.pivots
        assert pivots > one.pivots
        for j in range(lp.num_variables):
            if lp._objective[j]:  # the e and f variables
                name = lp.variable_name(j)
                assert abs(solution[name] - one[name]) < 1e-9, name


def assert_close(reused, fresh, tol=1e-9):
    """A result from a reused handle is a fresh one's: objective and posterior to ``tol``."""

    assert reused.objective == pytest.approx(fresh.objective, rel=tol, abs=tol)
    assert reused.posterior.keys() == fresh.posterior.keys()
    for lid, value in fresh.posterior.items():
        assert abs(reused.posterior[lid] - value) < tol, lid


class TestInverseLPs:
    """A handle reused across calls gives what fresh LPs give, and is rebuilt when it must."""

    ROUTES = (Path("1", "2", (2, 18, 11)), Path("1", "3", (2, 17, 8, 14, 16)))

    def test_reused_handle_matches_fresh_lps(self, nd_net, nd_priced):
        base = nd_net.base_costs()
        lps = InverseLPs()
        rng = np.random.default_rng(5)
        for _ in range(6):
            prior = {1: float(rng.uniform(0, 6)), 7: float(rng.uniform(0, 6))}
            reused = infer_dual_prices(nd_net, base, nd_priced, prior, self.ROUTES[0], lps)
            assert_close(reused, infer_dual_prices(nd_net, base, nd_priced, prior, self.ROUTES[0]))
        # the one program kept its form and its final basis's LU
        assert lps.lp._std is not None and lps.lp._final[-1] is not None
        costs = infer_link_costs(nd_net, base, self.ROUTES[1], lps)
        assert costs == infer_link_costs(nd_net, base, self.ROUTES[1])

    @pytest.mark.parametrize("change", ["route", "costs", "tie-break"])
    def test_handle_for_another_problem_is_rebuilt(self, nd_net, change):
        # the price inverse with zero costs and every link priced differs from
        # the cost inverse in its tie-break only
        zero = {l.id: 0.0 for l in nd_net.links}
        every = CapacitySpec.priced_only(zero)
        prior = {lid: 1.0 + lid % 3 for lid in zero}

        def price(lps=None, route=self.ROUTES[0], costs=zero):
            return infer_dual_prices(nd_net, costs, every, prior, route, lps)

        lps = InverseLPs()
        for _ in range(3):
            price(lps)
        lp, key = lps.lp, lps.key
        if change == "tie-break":
            result = infer_link_costs(nd_net, prior, self.ROUTES[0], lps)
            assert result == infer_link_costs(nd_net, prior, self.ROUTES[0])
        else:
            problem = {
                "route": {"route": self.ROUTES[1]},
                "costs": {"costs": {**zero, 18: 0.5}},
            }[change]
            assert price(lps, **problem) == price(**problem)
        assert lps.key != key and lps.lp is not lp
        assert lps.lp._std is None  # solved once since the rebuild


    def test_reused_handle_still_checks_the_prior(self, nd_net, nd_priced):
        base = nd_net.base_costs()
        lps = InverseLPs()
        good = {1: 1.0, 7: 2.0}
        first = infer_dual_prices(nd_net, base, nd_priced, good, self.ROUTES[0], lps)
        for bad, message in (
            ({1: 1.0}, "no entry for link 7"),
            ({1: -1.0, 7: float("nan")}, "link 1 is negative or not finite: -1.0"),
            ({1: 1.0, 7: float("inf")}, "link 7 is negative or not finite: inf"),
        ):
            with pytest.raises(DataError, match=message):
                infer_dual_prices(nd_net, base, nd_priced, bad, self.ROUTES[0], lps)
        assert infer_dual_prices(nd_net, base, nd_priced, good, self.ROUTES[0], lps) == first

    def test_costs_changed_in_place_rebuild_the_handle(self, nd_net, nd_priced):
        costs = dict(nd_net.base_costs())
        prior = {1: 1.0, 7: 2.0}
        lps = InverseLPs()
        infer_dual_prices(nd_net, costs, nd_priced, prior, self.ROUTES[0], lps)
        lp = lps.lp
        costs[18] += 0.5  # the same mapping, changed after the handle was built
        result = infer_dual_prices(nd_net, costs, nd_priced, prior, self.ROUTES[0], lps)
        assert lps.lp is not lp
        assert result == infer_dual_prices(nd_net, costs, nd_priced, prior, self.ROUTES[0])


class TestRoundingBelowZero:
    """Posteriors the LP leaves a rounding error below zero are clamped to 0."""

    @staticmethod
    def overshoot_decrease(monkeypatch, link_id, amount):
        """Make the solver report link ``link_id``'s decrease ``amount`` too large."""

        real = inverse._lexicographic_solve

        def overshooting(lps):
            solution = real(lps)
            primal = dict(solution.primal)
            primal[f"e[{link_id}]"] += amount
            return dataclasses.replace(solution, primal=primal)

        monkeypatch.setattr(inverse, "_lexicographic_solve", overshooting)

    def test_price_clamped_within_feasibility_tolerance(self, toy_net, toy_priced, monkeypatch):
        self.overshoot_decrease(monkeypatch, 1, 0.5 * FEAS_TOL)
        result = infer_dual_prices(
            toy_net, toy_net.base_costs(), toy_priced, {1: 0.0, 2: 0.0}, Path("O", "D", (1,))
        )
        assert result.posterior == {1: 0.0, 2: 0.0}

    def test_cost_clamped_within_feasibility_tolerance(self, toy_net, monkeypatch):
        self.overshoot_decrease(monkeypatch, 1, FEAS_TOL)
        result = infer_link_costs(toy_net, {1: 0.0, 2: 1.0, 3: 2.0}, Path("O", "D", (1,)))
        assert result.posterior == {1: 0.0, 2: 1.0, 3: 2.0}

    def test_beyond_tolerance_is_a_solver_error(self, toy_net, toy_priced, monkeypatch):
        self.overshoot_decrease(monkeypatch, 1, 10 * FEAS_TOL)
        with pytest.raises(SolverError, match="posterior for link 1 is negative"):
            infer_dual_prices(
                toy_net, toy_net.base_costs(), toy_priced, {1: 0.0, 2: 0.0}, Path("O", "D", (1,))
            )
        with pytest.raises(SolverError, match="posterior for link 1 is negative"):
            infer_link_costs(toy_net, {1: 0.0, 2: 1.0, 3: 2.0}, Path("O", "D", (1,)))


@st.composite
def small_instances(draw):
    """A random connected network of 3-6 nodes, an observed route and a prior.

    A tree out of node ``0`` keeps every node reachable; extra links add
    alternative routes.  The route is any simple path from ``0``.
    """

    n = draw(st.integers(3, 6))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs += draw(st.lists(extra, max_size=6))
    cost = st.floats(0.0, 5.0, allow_subnormal=False)
    net = Network(Link(k + 1, str(a), str(b), draw(cost)) for k, (a, b) in enumerate(pairs))
    routes = enumerate_paths(net, ("0", str(draw(st.integers(1, n - 1)))), 50)
    observed = routes[draw(st.integers(0, len(routes) - 1))]
    link_ids = [l.id for l in net.links]
    priced = draw(st.lists(st.sampled_from(link_ids), min_size=1, unique=True))
    prior = {lid: draw(cost) for lid in link_ids}
    return net, observed, sorted(priced), prior


PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


class TestInverseProperties:
    """Both uses of the one inverse LP on random networks."""

    @PROPERTY_SETTINGS
    @given(small_instances())
    def test_cost_inverse(self, instance):
        net, observed, _, prior = instance
        result = infer_link_costs(net, prior, observed)
        assert all(v >= 0.0 for v in result.posterior.values())
        _, best = shortest_path(net, result.posterior, (observed.origin, observed.destination))
        assert abs(path_cost(net, result.posterior, observed) - best) < 1e-7
        assert abs(result.objective - oracle_cost_objective(net, prior, observed)) < 1e-7
        ids = [l.id for l in net.links]
        zero = dict.fromkeys(ids, 0.0)
        oracle = oracle_lexicographic_posterior(net, zero, ids, prior, observed, "f")
        assert all(abs(v - oracle[lid]) < 1e-7 * (1 + abs(v)) for lid, v in result.posterior.items())
        assert infer_link_costs(net, prior, observed) == result

    @PROPERTY_SETTINGS
    @given(small_instances())
    def test_price_inverse(self, instance):
        net, observed, priced_ids, full_prior = instance
        base = net.base_costs()
        priced = CapacitySpec.priced_only(priced_ids)
        prior = {lid: full_prior[lid] for lid in priced_ids}
        oracle = oracle_price_objective(net, base, priced_ids, prior, observed)
        try:
            result = infer_dual_prices(net, base, priced, prior, observed)
        except InconsistentObservation:
            assert oracle is None
            return
        assert all(v >= 0.0 for v in result.posterior.values())
        surcharged = {lid: c + result.posterior.get(lid, 0.0) for lid, c in base.items()}
        _, best = shortest_path(net, surcharged, (observed.origin, observed.destination))
        assert abs(path_cost(net, surcharged, observed) - best) < 1e-7
        assert oracle is not None and abs(result.objective - oracle) < 1e-7
        oracle = oracle_lexicographic_posterior(net, base, priced_ids, prior, observed, "e")
        assert all(abs(v - oracle[lid]) < 1e-7 * (1 + abs(v)) for lid, v in result.posterior.items())
        assert infer_dual_prices(net, base, priced, prior, observed) == result

    @PROPERTY_SETTINGS
    @given(st.sampled_from(["nd", "grid"]), st.sampled_from(["price", "cost"]), st.integers(0))
    def test_handle_reused_over_priors_matches_fresh_lps(self, nd_net, network, variant, seed):
        """One handle re-solved over a sequence of priors gives fresh LPs' answers."""

        rng = np.random.default_rng(seed)
        net = nd_net if network == "nd" else grid(3, rng)
        nodes = sorted(net.nodes)
        routes: list = []
        while not routes:
            origin, destination = rng.choice(nodes, 2, replace=False).tolist()
            routes = enumerate_paths(net, (origin, destination), 50)
        observed = routes[int(rng.integers(len(routes)))]
        ids = [l.id for l in net.links]
        if variant == "price":
            adjustable = sorted(rng.choice(ids, int(rng.integers(1, len(ids) + 1)), replace=False))
            priced, base = CapacitySpec.priced_only(adjustable), net.base_costs()

            def infer(prior, lps=None):
                return infer_dual_prices(net, base, priced, prior, observed, lps)
        else:
            adjustable = ids

            def infer(prior, lps=None):
                return infer_link_costs(net, prior, observed, lps)

        lps = InverseLPs()
        for _ in range(5):
            prior = {lid: float(rng.uniform(0.0, 5.0)) for lid in adjustable}
            try:
                fresh = infer(prior)
            except InconsistentObservation:
                with pytest.raises(InconsistentObservation):
                    infer(prior, lps)
                continue
            assert_close(infer(prior, lps), fresh)


class TestAnswerAtPrior:
    """The learner's answer without an LP is the LP's answer wherever it gives one."""

    @staticmethod
    def problem(instance, variant):
        """The shortcut's answer, the LP's solve, and the links' adjusted costs."""

        net, observed, priced_ids, full_prior = instance
        if variant == "cost":
            zero = {l.id: 0.0 for l in net.links}
            return (
                answer_at_prior(net, zero, zero, full_prior, observed),
                lambda: infer_link_costs(net, full_prior, observed),
                full_prior,
            )
        base, priced = net.base_costs(), CapacitySpec.priced_only(priced_ids)
        prior = {lid: full_prior[lid] for lid in priced_ids}
        adjusted = {lid: c + prior.get(lid, 0.0) for lid, c in base.items()}
        return (
            answer_at_prior(net, base, priced_ids, prior, observed),
            lambda: infer_dual_prices(net, base, priced, prior, observed),
            adjusted,
        )

    @PROPERTY_SETTINGS
    @given(small_instances(), st.sampled_from(["price", "cost"]))
    def test_shortcut_equals_the_lp(self, instance, variant):
        net, observed = instance[0], instance[1]
        answer, infer, adjusted = self.problem(instance, variant)
        if answer is not None:
            result = infer()
            assert answer.objective == result.objective == 0.0
            assert answer.posterior.keys() == result.posterior.keys()
            for lid, value in answer.posterior.items():
                assert math.isclose(result.posterior[lid], value, rel_tol=1e-12), lid
            return
        try:
            objective = infer().objective
        except InconsistentObservation:
            return
        if objective > 0.0:
            return
        # the LP snaps an objective below 1e-9 to 0: the route is longer by rounding only
        route = path_cost(net, adjusted, observed)
        _, best = shortest_path(net, adjusted, (observed.origin, observed.destination))
        assert route <= best + 1e-9 * max(1.0, best)

