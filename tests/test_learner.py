"""Batch fixed-point runs, online updating, and exports."""

import dataclasses
import math
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from netinverse import inverse, learner
from netinverse.errors import DataError, NoUsableObservations
from netinverse.flows import path_cost, shortest_path, solve_multicommodity
from netinverse.learner import (
    OnlineState,
    estimate_costs,
    load_state,
    online_update,
    recover_prices,
    run_monitor,
    save_state,
    summarize_heterogeneity,
    write_heterogeneity,
    write_online_log,
    write_trace,
)
from netinverse.network import (
    CapacitySpec,
    Link,
    Network,
    Observation,
    Path,
    _format_float,
    enumerate_paths,
)
from netinverse.scenarios import decompose_path_flows, load_scenario, sample_flow_observations
from netinverse.inverse import InverseLPs, answer_at_prior, infer_dual_prices, infer_link_costs


def toy_observations(weights=(100.0, 200.0, 100.0)):
    return [
        Observation("g1", Path("O", "D", (1,)), weight=weights[0]),
        Observation("g2", Path("O", "D", (2,)), weight=weights[1]),
        Observation("g3", Path("O", "D", (3,)), weight=weights[2]),
    ]


class TestRecoverPrices:
    def test_golden_iterates(self, toy_net, toy_priced):
        """First two priors of the worked three-route example, exactly."""

        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        assert abs(trace.priors[1][1] - 1.25) < 1e-9
        assert abs(trace.priors[1][2] - 0.5) < 1e-9
        assert abs(trace.priors[2][1] - 29 / 16) < 1e-9
        assert abs(trace.priors[2][2] - 7 / 8) < 1e-9

    def test_limit_point_and_iteration_budget(self, toy_net, toy_priced):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced,
            tol=1e-6, max_iter=200,
        )
        assert trace.converged
        assert trace.iterations <= 60
        assert abs(trace.priors[-1][1] - 3.0) < 1e-3
        assert abs(trace.priors[-1][2] - 2.0) < 1e-3

    def test_monotone_from_zero(self, toy_net, toy_priced):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        for before, after in zip(trace.priors, trace.priors[1:]):
            for lid in (1, 2):
                assert after[lid] >= before[lid] - 1e-9

    def test_homogeneous_at_convergence(self, toy_net, toy_priced):
        tol = 1e-6
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced, tol=tol
        )
        assert trace.converged
        final = trace.final_prior()
        for posterior in trace.per_agent_posteriors.values():
            for lid in (1, 2):
                assert abs(posterior[lid] - final[lid]) <= 2 * tol

    def test_stationary_restart(self, toy_net, toy_priced):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        again = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced,
            initial_prior=trace.final_prior(),
        )
        assert again.iterations == 1
        assert again.converged

    def test_inconsistent_observations_skipped(self, toy_net):
        priced = CapacitySpec.priced_only([2])
        obs = [
            Observation("ok", Path("O", "D", (1,)), weight=1.0),
            Observation("bad", Path("O", "D", (3,)), weight=1.0),
        ]
        trace = recover_prices(obs, toy_net, toy_net.base_costs(), priced)
        assert trace.skipped_agents == ("bad",)
        assert set(trace.per_agent_posteriors) == {"ok"}

    def test_all_inconsistent_raises(self, toy_net):
        priced = CapacitySpec.priced_only([2])
        obs = [Observation("bad", Path("O", "D", (3,)), weight=1.0)]
        with pytest.raises(NoUsableObservations):
            recover_prices(obs, toy_net, toy_net.base_costs(), priced)

    def test_grouping_matches_per_agent_solves(self, toy_net, toy_priced):
        """100 unit-weight agents on a route equal one agent of weight 100."""

        many = [
            Observation(f"a{i}", Path("O", "D", (1,) if i < 100 else ((2,) if i < 300 else (3,))))
            for i in range(400)
        ]
        grouped = recover_prices(many, toy_net, toy_net.base_costs(), toy_priced)
        weighted = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        assert grouped.iterations == weighted.iterations
        for a, b in zip(grouped.priors, weighted.priors):
            for lid in (1, 2):
                assert abs(a[lid] - b[lid]) < 1e-12

    def test_each_group_solved_once_per_iteration(self, toy_net, monkeypatch):
        """The consistency pass doubles as iteration 1: no group is solved twice."""

        answered, solved = [], []
        real_answer, real_infer = learner.answer_at_prior, learner.infer_dual_prices

        def answer(*args):
            result = real_answer(*args)
            answered.append(result is not None)
            return result

        def infer(*args):
            solved.append(args)
            return real_infer(*args)

        monkeypatch.setattr(learner, "answer_at_prior", answer)
        monkeypatch.setattr(learner, "infer_dual_prices", infer)
        obs = toy_observations() + [Observation("bad", Path("O", "D", (3,)), weight=1.0)]
        priced = CapacitySpec.priced_only([1])
        trace = recover_prices(obs, toy_net, toy_net.base_costs(), priced)
        assert trace.skipped_agents == ("bad", "g3")
        assert trace.iterations > 1
        # a group takes an LP exactly when the route is not already shortest
        assert solved and True in answered
        assert len(solved) == answered.count(False)
        # two usable routes solved per iteration, plus the one inconsistent route once
        assert answered.count(True) + len(solved) == 2 * trace.iterations + 1

    def test_trace_shape_invariant(self, toy_net, toy_priced):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        assert len(trace.priors) >= 1
        assert trace.iterations == len(trace.priors) - 1


class TestEstimateCosts:
    def test_already_optimal_routes_converge_immediately(self, toy_net):
        obs = [
            Observation("a", Path("O", "D", (1,))),
            Observation("b", Path("O", "D", (1,))),
        ]
        prior = toy_net.base_costs()
        trace = estimate_costs(obs, toy_net, prior, tol=1e-3)
        assert trace.converged
        assert trace.iterations == 1
        assert trace.final_gap == 0.0
        assert trace.priors[-1] == prior

    def test_two_weakly_optimal_agents_fixed_immediately(self, toy_net):
        obs = [
            Observation("a", Path("O", "D", (1,))),
            Observation("b", Path("O", "D", (2,))),
        ]
        prior = {1: 1.0, 2: 1.0, 3: 1.0}
        trace = estimate_costs(obs, toy_net, prior, tol=1e-3)
        assert trace.converged and trace.iterations == 1
        assert trace.priors[-1] == prior

    def test_fit_and_mean_consistency(self, fourlink_net):
        obs = [
            Observation("a", Path("1", "4", (1, 4)), weight=240.0),
            Observation("b", Path("1", "4", (2, 5)), weight=240.0),
            Observation("c", Path("1", "4", (1, 3, 5)), weight=20.0),
        ]
        prior = {i: 0.5 for i in range(1, 6)}
        trace = estimate_costs(obs, fourlink_net, prior, tol=1e-3, max_iter=200)
        assert trace.converged
        final = trace.final_prior()
        # weighted posterior mean within tol of the prior
        total = 500.0
        for lid in final:
            mean = (
                240 * trace.per_agent_posteriors["a"][lid]
                + 240 * trace.per_agent_posteriors["b"][lid]
                + 20 * trace.per_agent_posteriors["c"][lid]
            ) / total
            assert abs(mean - final[lid]) < 1e-3
        # every observed route optimal under its own posterior
        for ob in obs:
            posterior = trace.per_agent_posteriors[ob.agent_id]
            _, best = shortest_path(fourlink_net, posterior, ("1", "4"))
            assert abs(path_cost(fourlink_net, posterior, ob.path) - best) < 1e-7

    def test_stationary_restart(self, fourlink_net):
        obs = [
            Observation("a", Path("1", "4", (1, 4)), weight=480.0),
            Observation("c", Path("1", "4", (1, 3, 5)), weight=20.0),
        ]
        prior = {i: 0.5 for i in range(1, 6)}
        trace = estimate_costs(obs, fourlink_net, prior, tol=1e-3, max_iter=200)
        assert trace.converged
        again = estimate_costs(obs, fourlink_net, trace.final_prior(), tol=1e-3)
        assert again.iterations == 1 and again.converged

    def test_requires_observations(self, toy_net):
        with pytest.raises(NoUsableObservations):
            estimate_costs([], toy_net, toy_net.base_costs())


class TestOnlineUpdate:
    def test_optimal_observation_is_a_no_op(self, toy_net, toy_priced):
        state = OnlineState({1: 3.0, 2: 2.0})
        after = online_update(
            state,
            Observation("a", Path("O", "D", (2,))),
            toy_net,
            toy_net.base_costs(),
            toy_priced,
        )
        assert after.prices == {1: 3.0, 2: 2.0}
        assert after.update_count == 1
        assert after.log[-1].objective == 0.0

    def test_contradicting_observation_deflates(self, toy_net, toy_priced):
        state = OnlineState({1: 5.0, 2: 2.0})
        after = online_update(
            state,
            Observation("a", Path("O", "D", (1,))),
            toy_net,
            toy_net.base_costs(),
            toy_priced,
        )
        assert after.prices == {1: 3.0, 2: 2.0}

    def test_regime_revealing_route_jumps_price(self, nd_net, nd_priced):
        """The first arrival on the capacity-drop-only route lifts the price."""

        state = OnlineState({1: 7.0, 7: 5.0})
        after = online_update(
            state,
            Observation("a", Path("4", "2", (4, 12, 14, 15)), timestamp=125.0),
            nd_net,
            nd_net.base_costs(),
            nd_priced,
        )
        assert after.prices[7] >= 6.0 - 1e-9
        assert after.last_timestamp == 125.0

    def test_skip_logged(self, toy_net):
        priced = CapacitySpec.priced_only([2])
        state = OnlineState({2: 0.0})
        after = online_update(
            state,
            Observation("bad", Path("O", "D", (3,))),
            toy_net,
            toy_net.base_costs(),
            priced,
        )
        assert after.prices == {2: 0.0}
        assert after.log[-1].skipped
        assert math.isnan(after.log[-1].objective)

    def test_monitor_fold_equivalence(self, toy_net, toy_priced):
        stream = [
            Observation("a1", Path("O", "D", (3,)), timestamp=1.0),
            Observation("a2", Path("O", "D", (2,)), timestamp=2.0),
            Observation("a3", Path("O", "D", (1,)), timestamp=3.0),
        ]
        folded = OnlineState({1: 0.0, 2: 0.0})
        for ob in stream:
            folded = online_update(folded, ob, toy_net, toy_net.base_costs(), toy_priced)
        batched = run_monitor(
            OnlineState({1: 0.0, 2: 0.0}), stream, toy_net, toy_net.base_costs(), toy_priced
        )
        assert folded == batched

    def test_prices_beyond_the_priced_links_are_kept(self):
        """A state resumed from a run that also priced link 3 keeps that price."""

        net = Network([Link(1, "a", "b", 1.0), Link(2, "a", "b", 2.5), Link(3, "b", "c", 1.0),
                       Link(4, "a", "c", 3.0)])
        priced = CapacitySpec.priced_only([1, 2])
        state = OnlineState({1: 0.25, 2: 0.5, 3: 4.0})
        # route 4 ties route 1, 3 once link 1's price rises to 1
        state = online_update(state, Observation("direct", Path("a", "c", (4,))), net,
                              net.base_costs(), priced)
        assert not state.log[-1].skipped
        assert state.prices == {1: pytest.approx(1.0), 2: 0.5, 3: 4.0}
        # route 2, 3 costs at least 3.5 under any prices, more than the unpriced link 4
        folded = state.prices
        state = online_update(state, Observation("long", Path("a", "c", (2, 3))), net,
                              net.base_costs(), priced)
        assert state.log[-1].skipped
        assert state.prices == folded


class TestChecksBeforeTheShortcut:
    """A route answered without an LP meets every check a route that takes one meets.

    Each fault raises, from every learner entry point it applies to, the
    text the LP path gives, on route ``(1,)``, a shortest route under the
    prior, and on route ``(2,)``, which is not.  The base costs and the
    priced links apply to the price learners only; the online state refuses
    a negative price itself.
    """

    NET = Network([Link(1, "O", "D", 1.0), Link(2, "O", "D", 2.0), Link(3, "O", "D", 4.0)])
    COST_PRIOR = {1: 1.0, 2: 2.0, 3: 4.0}

    @classmethod
    def price_inputs(cls, fault, links):
        costs, priced, prior = cls.NET.base_costs(), [1, 2], {1: 0.0, 2: 0.0}
        path = Path("O", "X" if fault == "invalid path" else "D", links)
        if fault == "missing prior":
            del prior[2]
        elif fault == "negative prior":
            prior[1] = -1.0
        elif fault == "missing base cost":
            del costs[3]
        elif fault == "unknown priced link":
            priced.append(9)
        return costs, CapacitySpec.priced_only(priced), prior, path

    @classmethod
    def cost_inputs(cls, fault, links):
        prior = dict(cls.COST_PRIOR)
        if fault == "missing prior":
            del prior[3]
        elif fault == "negative prior":
            prior[1] = -1.0
        return prior, Path("O", "X" if fault == "invalid path" else "D", links)

    def test_the_two_routes_split_the_shortcut(self):
        base, zero = self.NET.base_costs(), dict.fromkeys(self.COST_PRIOR, 0.0)
        for links, answered in (((1,), True), ((2,), False)):
            path = Path("O", "D", links)
            price = answer_at_prior(self.NET, base, [1, 2], {1: 0.0, 2: 0.0}, path)
            cost = answer_at_prior(self.NET, zero, zero, self.COST_PRIOR, path)
            assert (price is not None, cost is not None) == (answered, answered)

    @pytest.mark.parametrize("links", [(1,), (2,)])
    @pytest.mark.parametrize(
        "fault",
        ["missing prior", "negative prior", "invalid path", "missing base cost",
         "unknown priced link"],
    )
    def test_price_learners(self, fault, links):
        costs, priced, prior, path = self.price_inputs(fault, links)
        with pytest.raises(DataError) as lp_path:
            infer_dual_prices(self.NET, costs, priced, prior, path)
        ob = Observation("a", path)
        with pytest.raises(DataError) as batch:
            recover_prices([ob], self.NET, costs, priced, initial_prior=prior)
        assert str(batch.value) == str(lp_path.value)
        if fault != "negative prior":
            with pytest.raises(DataError) as online:
                online_update(OnlineState(prior), ob, self.NET, costs, priced)
            assert str(online.value) == str(lp_path.value)

    @pytest.mark.parametrize("links", [(1,), (2,)])
    @pytest.mark.parametrize("fault", ["missing prior", "negative prior", "invalid path"])
    def test_estimate_costs(self, fault, links):
        prior, path = self.cost_inputs(fault, links)
        with pytest.raises(DataError) as lp_path:
            infer_link_costs(self.NET, prior, path)
        with pytest.raises(DataError) as batch:
            estimate_costs([Observation("a", path)], self.NET, prior)
        assert str(batch.value) == str(lp_path.value)


class TestBatchInputsTheInverseDoesNotSee:
    """Batch faults no inverse call meets, on a shortest route ``(1,)`` and on ``(2,)``."""

    NET = TestChecksBeforeTheShortcut.NET

    @pytest.mark.parametrize("links", [(1,), (2,)])
    def test_no_priced_links(self, links):
        ob = Observation("a", Path("O", "D", links))
        with pytest.raises(DataError, match="no links are priced"):
            recover_prices([ob], self.NET, self.NET.base_costs(), CapacitySpec({}))

    @pytest.mark.parametrize("links", [(1,), (2,)])
    def test_prior_entry_for_a_link_not_estimated(self, links):
        ob = Observation("a", Path("O", "D", links))
        priced = CapacitySpec.priced_only([1, 2])
        with pytest.raises(DataError, match=r"links \[3\], which are not estimated"):
            recover_prices([ob], self.NET, self.NET.base_costs(), priced,
                           initial_prior={1: 0.0, 2: 0.0, 3: 5.0})
        prior = {**TestChecksBeforeTheShortcut.COST_PRIOR, 9: 0.0}
        with pytest.raises(DataError, match=r"links \[9\], which are not estimated"):
            estimate_costs([ob], self.NET, prior)


class TestExactPrior:
    """A route group already shortest under an iteration's prior gets that prior exactly."""

    def test_nd_flow_sampling(self, monkeypatch, data_dir, nd_net, nd_priced):
        spec = load_scenario(data_dir / "scenarios" / "flow_sampling_800.scn")
        obs = sample_flow_observations(spec)
        base = nd_net.base_costs()
        iterations = []
        real_gap = learner._agents_off_prior

        def recording(prior, mean, results):
            iterations.append((prior, results))
            return real_gap(prior, mean, results)

        monkeypatch.setattr(learner, "_agents_off_prior", recording)
        trace = recover_prices(obs, nd_net, base, nd_priced)
        assert trace.converged
        groups = learner._group(obs)
        # the results come in the order of the usable routes, sorted by links
        usable = [
            route for route in sorted(groups, key=lambda route: route.links)
            if groups[route][0].agent_id not in trace.skipped_agents
        ]
        cells = 0
        for prior, results in iterations:
            surcharged = {lid: c + prior.get(lid, 0.0) for lid, c in base.items()}
            for route, result in zip(usable, results, strict=True):
                _, best = shortest_path(nd_net, surcharged, (route.origin, route.destination))
                if path_cost(nd_net, surcharged, route) <= best:
                    assert result.posterior == prior
                    assert result.objective == 0.0
                    cells += 1
        assert len(iterations) == trace.iterations and cells > trace.iterations


class TestExports:
    def test_heterogeneity_homogeneous_population(self, toy_net, toy_priced):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        stats = summarize_heterogeneity(trace)
        for st in stats.values():
            assert st.std < 1e-5
            assert len(st.clusters) <= 3

    def test_heterogeneity_cluster_count_bounded_by_routes(self, fourlink_net):
        obs = [
            Observation("a", Path("1", "4", (1, 4)), weight=240.0),
            Observation("b", Path("1", "4", (2, 5)), weight=240.0),
            Observation("c", Path("1", "4", (1, 3, 5)), weight=20.0),
        ]
        prior = {i: 0.5 for i in range(1, 6)}
        trace = estimate_costs(obs, fourlink_net, prior, tol=1e-3, max_iter=200)
        stats = summarize_heterogeneity(trace)
        for st in stats.values():
            assert len(st.clusters) <= 3  # one value per route alternative at most

    def test_heterogeneity_files(self, toy_net, toy_priced, tmp_path):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        stats_file = tmp_path / "stats.csv"
        hist_file = tmp_path / "hist.csv"
        write_heterogeneity(trace, stats_file, hist_file)
        assert stats_file.read_text().startswith("link_id,mean,std")
        assert hist_file.read_text().startswith("link_id,value,count")

    def test_trace_files(self, toy_net, toy_priced, tmp_path):
        trace = recover_prices(
            toy_observations(), toy_net, toy_net.base_costs(), toy_priced
        )
        write_trace(trace, tmp_path / "run")
        prior_lines = (tmp_path / "run" / "prior_trace.csv").read_text().splitlines()
        assert prior_lines[0] == "iteration,link_id,prior_value"
        assert prior_lines[1] == "0,1,0"
        summary = (tmp_path / "run" / "summary.txt").read_text()
        assert "converged: true" in summary
        posts = (tmp_path / "run" / "agent_posteriors.csv").read_text().splitlines()
        assert posts[0] == "agent_id,link_id,value"
        assert len(posts) == 1 + 3 * 2

    def test_trace_files_read_back_exactly(self, toy_net, toy_priced, tmp_path):
        # weights of 1/3 each give priors no nine significant digits hold
        trace = recover_prices(
            toy_observations((1.0, 1.0, 1.0)), toy_net, toy_net.base_costs(), toy_priced
        )
        write_trace(trace, tmp_path / "run")
        rows = (tmp_path / "run" / "prior_trace.csv").read_text().splitlines()[1:]
        priors = [{} for _ in trace.priors]
        for row in rows:
            n, lid, value = row.split(",")
            priors[int(n)][int(lid)] = float(value)
        assert priors == list(trace.priors)
        assert any(float(f"{v:.9g}") != v for prior in priors for v in prior.values())
        rows = (tmp_path / "run" / "agent_posteriors.csv").read_text().splitlines()[1:]
        posteriors = {}
        for row in rows:
            agent_id, lid, value = row.split(",")
            posteriors.setdefault(agent_id, {})[int(lid)] = float(value)
        assert posteriors == trace.per_agent_posteriors
        summary = (tmp_path / "run" / "summary.txt").read_text().splitlines()
        assert float(summary[2].removeprefix("final_gap: ")) == trace.final_gap

    def test_agent_posteriors_file_matches_one_line_per_agent_and_link(self, tmp_path):
        """Byte for byte what formatting every agent's every link on its own writes."""

        net = Network([Link(9, "O", "D", 2.0), Link(10, "O", "D", 1.0), Link(3, "O", "D", 1.5)])
        obs = [Observation(f"a{i}", Path("O", "D", (10,))) for i in range(12)]
        obs += [Observation(f"b{i}", Path("O", "D", (3,))) for i in range(3)]
        obs.append(Observation("skipped", Path("O", "D", (9,))))  # 9 can only cost more than 3
        trace = recover_prices(obs, net, net.base_costs(), CapacitySpec.priced_only([9, 10]))
        assert trace.skipped_agents == ("skipped",)
        posteriors = trace.per_agent_posteriors
        assert posteriors["a0"] is posteriors["a11"] and posteriors["b0"] is posteriors["b2"]
        assert set(posteriors["a0"]) == {9, 10}

        write_trace(trace, tmp_path / "run")
        reference = ["agent_id,link_id,value"]
        for agent_id in sorted(posteriors):
            posterior = posteriors[agent_id]
            for lid in sorted(posterior):
                reference.append(f"{agent_id},{lid},{_format_float(posterior[lid])}")
        written = (tmp_path / "run" / "agent_posteriors.csv").read_bytes()
        assert written == ("\n".join(reference) + "\n").encode("utf-8")
        assert b"\na10,9," in written and b"\nskipped," not in written

    def test_agent_posteriors_do_not_change_each_other(self, toy_net, toy_priced):
        many = [Observation(f"a{i}", Path("O", "D", (1 if i < 3 else 2,))) for i in range(6)]
        trace = recover_prices(many, toy_net, toy_net.base_costs(), toy_priced)
        before = {agent: dict(p) for agent, p in trace.per_agent_posteriors.items()}
        posterior = trace.per_agent_posteriors["a0"]
        with pytest.raises(TypeError):
            posterior[1] = 99.0
        with pytest.raises(TypeError):
            del posterior[2]
        changed = dict(posterior)
        changed[1] = 99.0
        trace.per_agent_posteriors["a0"] = changed
        assert trace.per_agent_posteriors["a0"][1] == 99.0
        for agent, p in trace.per_agent_posteriors.items():
            if agent != "a0":
                assert dict(p) == before[agent]

    def test_state_round_trip(self, tmp_path):
        state = OnlineState({1: 7.0, 7: 5.0}, update_count=12, last_timestamp=33.0)
        f = tmp_path / "state.json"
        save_state(state, f)
        loaded = load_state(f)
        assert loaded.prices == state.prices
        assert loaded.update_count == 12
        assert loaded.last_timestamp == 33.0

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"prices": {"1": null}}', "price of link 1 is not finite or not a number"),
            ("[1, 2]", "expected a JSON object"),
            ('{"prices": [1, 2]}', "expected a JSON object"),
            ('{"prices": {"x": 1.0}}', "invalid literal"),
            ('{"prices": {"1": "0.5"}}', "price of link 1 is not finite or not a number"),
            ('{"prices": {"1": 1.0}, "last_timestamp": "x"}', "last_timestamp is not finite"),
            ('{"prices": {"1": 1.0}, "last_timestamp": Infinity}', "last_timestamp is not finite"),
            ('{"prices": {"1": 1.0}, "update_count": null}', "update_count is not"),
            ('{"prices": {"1": 1.0}, "update_count": 2.5}', "update_count is not"),
            ('{"prices": {"1": 2.0, "1": 3.0}}', "repeated key '1'"),
            ('{"prices": {"1": 2.0, "01": 3.0}}', "price key '01' is not written as link id 1"),
            ('{"prices": {"1": 1.0}, "update_count": 1, "update_count": 2}',
             "repeated key 'update_count'"),
        ],
    )
    def test_malformed_state_file_is_data_error(self, tmp_path, payload, message):
        f = tmp_path / "state.json"
        f.write_text(payload)
        with pytest.raises(DataError, match=message):
            load_state(f)

    def test_state_write_failing_part_way_keeps_previous_file(self, tmp_path, monkeypatch):
        f = tmp_path / "state.json"
        save_state(OnlineState({1: 7.0, 7: 5.0}, update_count=12, last_timestamp=33.0), f)
        before = f.read_bytes()
        write_text = FilePath.write_text

        def fail_half_way(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(FilePath, "write_text", fail_half_way)
        with pytest.raises(DataError, match="No space left") as exc:
            save_state(OnlineState({1: 9.0, 7: 1.0}, update_count=13), f)
        assert str(exc.value).startswith(f"cannot write {f}: ")
        monkeypatch.undo()
        assert f.read_bytes() == before
        loaded = load_state(f)
        assert loaded.prices == {1: 7.0, 7: 5.0}
        assert loaded.update_count == 12
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_online_log_file(self, toy_net, toy_priced, tmp_path):
        state = OnlineState({1: 0.0, 2: 0.0})
        state = online_update(
            state, Observation("a", Path("O", "D", (3,)), timestamp=1.0),
            toy_net, toy_net.base_costs(), toy_priced,
        )
        f = tmp_path / "log.csv"
        write_online_log(state, f)
        lines = f.read_text().splitlines()
        assert lines[0] == "update_index,timestamp,agent_id,objective,link_id,prior_after"
        assert lines[1] == "1,1,a,5,1,3"

    @pytest.mark.parametrize("stamp", [1234567.25, 0.1 + 0.2])
    def test_online_log_timestamps_are_exact(self, toy_net, toy_priced, tmp_path, stamp):
        state = online_update(
            OnlineState({1: 0.0, 2: 0.0}), Observation("a", Path("O", "D", (3,)), timestamp=stamp),
            toy_net, toy_net.base_costs(), toy_priced,
        )
        f = tmp_path / "log.csv"
        write_online_log(state, f)
        assert {float(line.split(",")[1]) for line in f.read_text().splitlines()[1:]} == {stamp}

    def test_online_log_and_heterogeneity_values_are_exact(self, tmp_path):
        third = 0.33333333333333326  # 0.333333333 at nine significant digits
        entry = learner.OnlineLogEntry(1, "a", 1.0, third, {1: third, 2: 0.1 + 0.2})
        log = tmp_path / "log.csv"
        write_online_log(OnlineState({1: third, 2: 0.1 + 0.2}, 1, 1.0, (entry,)), log)
        rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
        assert [(float(row[3]), float(row[5])) for row in rows] == [(third, third),
                                                                    (third, 0.1 + 0.2)]
        posteriors = {"a": {1: third}, "b": {1: third}, "c": {1: 1.0}}
        trace = learner.FixedPointTrace(({1: 0.0},), posteriors, 1, True, 0.0)
        stats_file, hist_file = tmp_path / "stats.csv", tmp_path / "hist.csv"
        write_heterogeneity(trace, stats_file, hist_file)
        st = summarize_heterogeneity(trace)[1]
        assert [float(v) for v in stats_file.read_text().splitlines()[1].split(",")[1:]] == [
            st.mean, st.std]
        assert [(float(row.split(",")[1]), int(row.split(",")[2]))
                for row in hist_file.read_text().splitlines()[1:]] == list(st.clusters)


class TestRepeatedAgentId:
    """A batch with one agent id on two observations: each agent has one posterior."""

    NET = Network([Link(1, "a", "b", 1.0), Link(2, "a", "b", 2.0)])
    OBS = [Observation("x", Path("a", "b", (1,))), Observation("x", Path("a", "b", (2,))),
           Observation("y", Path("a", "b", (1,)))]

    @staticmethod
    def no_solve(*args):
        raise AssertionError("the batch solved an inverse before checking its observations")

    def test_one_observation_listed_twice(self, monkeypatch):
        monkeypatch.setattr(learner, "infer_link_costs", self.no_solve)
        with pytest.raises(DataError, match="agent id 'y' appears more than once"):
            estimate_costs(self.OBS[2:] * 2, self.NET, {1: 0.5, 2: 0.5})

    def test_estimate_costs(self, monkeypatch):
        monkeypatch.setattr(learner, "infer_link_costs", self.no_solve)
        with pytest.raises(DataError, match="agent id 'x' appears more than once"):
            estimate_costs(self.OBS, self.NET, {1: 0.5, 2: 0.5})

    def test_recover_prices(self, monkeypatch):
        monkeypatch.setattr(learner, "infer_dual_prices", self.no_solve)
        priced = CapacitySpec.priced_only([1, 2])
        with pytest.raises(DataError, match="agent id 'x' appears more than once"):
            recover_prices(self.OBS, self.NET, self.NET.base_costs(), priced)


class TestGroup:
    def test_groups_and_order_equal_dataclass_keyed_grouping(self):
        """Equal routes group together, however many objects carry them."""

        def route(*links):
            return Path("O", "D" if len(links) == 1 else "X", links)

        routes = [(2,), (1,), (2,), (2, 3), (1,), (2,), (2, 3), (2,)]
        observations = [Observation(f"a{n}", route(*links)) for n, links in enumerate(routes)]
        observations.append(Observation("b", Path("Y", "D", (2,))))  # same links, other origin
        expected: dict = {}
        for ob in observations:
            expected.setdefault(ob.path, []).append(ob)
        groups = learner._group(observations)
        assert list(groups.items()) == list(expected.items())
        assert len(groups) < len(observations)
        for path, members in groups.items():
            assert path is members[0].path


class TestPivotMemos:
    """The per-group LP handles of the batch fixed points change no result beyond rounding."""

    @staticmethod
    def run_with_and_without_memos(monkeypatch, run):
        """Run with the handles, then with fresh LPs for every call, and compare.

        The runs take the same iterations and agree to within 1e-9; the
        handles' re-solves start from their last optimal bases and take
        fewer pivots.
        """

        handles: list[InverseLPs] = []
        pivots: list[int] = []
        real_solve = inverse.solve

        def recorded():
            handles.append(InverseLPs())
            return handles[-1]

        def counting(lp):
            solution = real_solve(lp)
            pivots.append(solution.pivots)
            return solution

        monkeypatch.setattr(inverse, "solve", counting)
        monkeypatch.setattr(learner, "InverseLPs", recorded)
        with_memos = run()
        kept = sum(pivots)
        # every handle that took an LP kept it and its final basis across the
        # iterations; a group whose route was already shortest built none
        built = [lps for lps in handles if lps.lp is not None]
        assert built and all(lps.lp._final is not None for lps in built)
        monkeypatch.setattr(learner, "InverseLPs", lambda: None)
        fresh = run()
        assert sum(pivots) - kept > kept
        close = dict(rel=1e-9, abs=1e-9)
        assert (fresh.iterations, fresh.converged, fresh.skipped_agents) == (
            with_memos.iterations, with_memos.converged, with_memos.skipped_agents
        )
        assert len(fresh.priors) == len(with_memos.priors)
        for prior, kept_prior in zip(fresh.priors, with_memos.priors):
            assert kept_prior == pytest.approx(prior, **close)
        assert fresh.per_agent_posteriors.keys() == with_memos.per_agent_posteriors.keys()
        for agent, posterior in fresh.per_agent_posteriors.items():
            assert with_memos.per_agent_posteriors[agent] == pytest.approx(posterior, **close)
        assert with_memos.final_gap == pytest.approx(fresh.final_gap, **close)
        return with_memos

    @staticmethod
    def nd_route_groups(nd_net, nd_demand, caps_800):
        solution = solve_multicommodity(nd_net, nd_demand, caps_800)
        return [
            Observation(f"grp{i}", route, weight=flow)
            for i, (route, flow) in enumerate(
                (route, flow)
                for routes in decompose_path_flows(nd_net, solution).values()
                for route, flow in routes.items()
            )
        ]

    def test_recover_prices(self, monkeypatch, nd_net, nd_demand, caps_800, nd_priced):
        obs = self.nd_route_groups(nd_net, nd_demand, caps_800)
        trace = self.run_with_and_without_memos(
            monkeypatch,
            lambda: recover_prices(obs, nd_net, nd_net.base_costs(), nd_priced, tol=1e-6),
        )
        assert trace.converged and trace.iterations > 10

    def test_estimate_costs(self, monkeypatch, nd_net, nd_demand, caps_800):
        obs = self.nd_route_groups(nd_net, nd_demand, caps_800)
        prior = {l.id: 0.5 for l in nd_net.links}
        trace = self.run_with_and_without_memos(
            monkeypatch, lambda: estimate_costs(obs, nd_net, prior, tol=1e-3, max_iter=300)
        )
        assert trace.iterations > 10


def least_prices(net, observations, priced_ids):
    """The least ``p >= 0`` under which every observed route is a shortest route, by HiGHS.

    One LP minimises the sum of the prices, with a free vector of node
    potentials per distinct route: a link's priced cost bounds the rise in
    potential along it, and equals it on the route.  Returns that minimiser
    and, for each priced link, the least price it can take on its own; the
    two agree exactly when the minimiser is the least element.
    """

    routes = sorted({ob.path.links for ob in observations})
    nodes = sorted(net.nodes)
    k, n = len(priced_ids), len(nodes)
    width = k + n * len(routes)
    rows = {True: ([], []), False: ([], [])}  # on the route: (A_eq, b_eq); off it: (A_ub, b_ub)
    for g, route in enumerate(routes):
        for link in net.links:
            row = np.zeros(width)
            row[k + g * n + nodes.index(link.head)] += 1.0
            row[k + g * n + nodes.index(link.tail)] -= 1.0
            if link.id in priced_ids:
                row[priced_ids.index(link.id)] = -1.0
            a, b = rows[link.id in route]
            a.append(row)
            b.append(link.base_cost)
    bounds = [(0, None)] * k + [(None, None)] * (width - k)

    def minimise(cost):
        (a_eq, b_eq), (a_ub, b_ub) = rows[True], rows[False]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                      method="highs")
        assert res.status == 0, res.message
        return res.x[:k]

    alone = [minimise(np.eye(width)[i])[i] for i in range(k)]
    return minimise(np.r_[np.ones(k), np.zeros(width - k)]), np.array(alone)


class TestLeastFixedPoint:
    """From a zero prior, batch recovery ends at the least prices that make every
    observed route a shortest route: the paper's unique dual prices."""

    @pytest.fixture(params=["toy", "nd-caps-800", "nd-caps-500", "flow-sampling-800"])
    def case(self, request, toy_net, toy_priced, nd_net, nd_demand, caps_800, caps_500,
             nd_priced, data_dir):
        if request.param == "toy":
            return toy_net, toy_observations(), toy_priced
        if request.param == "flow-sampling-800":
            spec = load_scenario(data_dir / "scenarios" / "flow_sampling_800.scn")
            return nd_net, sample_flow_observations(spec), nd_priced
        caps = caps_800 if request.param == "nd-caps-800" else caps_500
        return nd_net, TestPivotMemos.nd_route_groups(nd_net, nd_demand, caps), nd_priced

    def test_final_prior_is_the_least_element(self, case):
        net, observations, priced = case
        trace = recover_prices(observations, net, net.base_costs(), priced, tol=1e-6)
        assert trace.converged and not trace.skipped_agents
        ids = list(priced.priced_links())
        prices, alone = least_prices(net, observations, ids)
        assert np.allclose(prices, alone, rtol=0.0, atol=1e-9)  # a least element exists
        final = np.array([trace.final_prior()[lid] for lid in ids])
        assert np.max(np.abs(final - prices)) <= 1e-5, (final, prices)


COSTS = st.floats(0.0, 5.0, allow_subnormal=False)


def connected_network(draw) -> tuple[Network, int]:
    """A random network of 3-6 nodes, each reachable from node 0, and its node count."""

    n = draw(st.integers(3, 6))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs += draw(st.lists(extra, max_size=6))
    return Network(Link(k + 1, str(a), str(b), draw(COSTS)) for k, (a, b) in enumerate(pairs)), n


@st.composite
def batch_instances(draw):
    """A random connected network of 3-6 nodes, agents observed on routes
    between one OD pair, priced links and a prior."""

    net, n = connected_network(draw)
    # the OD pair with the most routes out of node 0, so agents can disagree
    routes = max((enumerate_paths(net, ("0", str(d)), 50) for d in range(1, n)), key=len)
    picked = draw(st.permutations(routes))[: draw(st.integers(1, 4))]
    observations = [
        Observation(f"a{agent}", route, weight=draw(st.floats(1.0, 100.0)))
        for agent, route in enumerate(picked)
    ]
    link_ids = [l.id for l in net.links]
    priced = draw(st.lists(st.sampled_from(link_ids), min_size=1, unique=True))
    prior = {lid: draw(COSTS) for lid in link_ids}
    return net, observations, sorted(priced), prior


def assert_routes_shortest(net, observations, trace, surcharge):
    """Every kept agent's route is shortest under its own posterior."""

    for ob in observations:
        if ob.agent_id in trace.skipped_agents:
            continue
        posterior = trace.per_agent_posteriors[ob.agent_id]
        assert all(v >= 0.0 for v in posterior.values())
        costs = surcharge(posterior)
        _, best = shortest_path(net, costs, (ob.path.origin, ob.path.destination))
        assert abs(path_cost(net, costs, ob.path) - best) < 1e-7


BATCH_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


class TestBatchFoldProperties:
    """Both batch fixed points on random small connected networks."""

    @BATCH_SETTINGS
    @given(batch_instances())
    def test_estimate_costs(self, instance):
        net, observations, _, prior = instance
        trace = estimate_costs(observations, net, prior, max_iter=50)
        assert all(v >= 0.0 for p in trace.priors for v in p.values())
        assert_routes_shortest(net, observations, trace, lambda posterior: posterior)
        assert estimate_costs(observations, net, prior, max_iter=50) == trace

    @BATCH_SETTINGS
    @given(batch_instances())
    def test_recover_prices(self, instance):
        net, observations, priced_ids, full_prior = instance
        base = net.base_costs()
        priced = CapacitySpec.priced_only(priced_ids)
        prior = {lid: full_prior[lid] for lid in priced_ids}
        try:
            trace = recover_prices(observations, net, base, priced, prior, max_iter=50)
        except NoUsableObservations:
            return
        assert all(v >= 0.0 for p in trace.priors for v in p.values())
        assert_routes_shortest(
            net,
            observations,
            trace,
            lambda posterior: {lid: c + posterior.get(lid, 0.0) for lid, c in base.items()},
        )
        assert recover_prices(observations, net, base, priced, prior, max_iter=50) == trace


@st.composite
def online_instances(draw):
    """A random connected network of 3-6 nodes, priced links with their
    starting prices, and a stream of arrivals on routes between one OD pair."""

    net, n = connected_network(draw)
    link_ids = [l.id for l in net.links]
    # the OD pair with the most routes out of node 0, taken in turn
    routes = max((enumerate_paths(net, ("0", str(d)), 50) for d in range(1, n)), key=len)
    routes = draw(st.permutations(routes))
    stream = []
    for arrival in range(draw(st.integers(1, 6))):
        stream.append(Observation(f"a{arrival}", routes[arrival % len(routes)]))
    # most links priced, so that most routes can be priced into optimality
    priced = [lid for lid in link_ids if draw(st.integers(0, 3))] or link_ids
    prices = {lid: draw(COSTS) for lid in priced}
    return net, CapacitySpec.priced_only(priced), prices, stream


class TestOnlineFoldProperties:
    """The online fold on random small connected networks."""

    @BATCH_SETTINGS
    @given(online_instances())
    def test_online_update(self, instance):
        net, priced, prices, stream = instance
        base = net.base_costs()
        state = OnlineState(prices)
        for ob in stream:
            before = state.prices
            state = online_update(state, ob, net, base, priced)
            entry = state.log[-1]
            assert state.prices.keys() == before.keys()
            assert all(v >= 0.0 for v in state.prices.values())
            if entry.skipped:
                assert state.prices == before
                continue
            costs = {lid: c + state.prices.get(lid, 0.0) for lid, c in base.items()}
            od = (ob.path.origin, ob.path.destination)
            _, best = shortest_path(net, costs, od)
            assert abs(path_cost(net, costs, ob.path) - best) < 1e-7
            moved = sum(abs(state.prices[lid] - before[lid]) for lid in before)
            assert abs(entry.objective - moved) < 1e-7
        again = run_monitor(OnlineState(prices), stream, net, base, priced)
        assert without_nan(again) == without_nan(state)


def without_nan(state: OnlineState) -> OnlineState:
    """``state`` with the NaN objective of each skipped entry replaced, so that ``==`` applies."""

    log = tuple(dataclasses.replace(e, objective=None) if e.skipped else e for e in state.log)
    return dataclasses.replace(state, log=log)
