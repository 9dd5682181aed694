"""Shortest paths, the capacitated multicommodity LP, and assignment shares."""

import hashlib

import numpy as np
import pytest

from netinverse import flows
from netinverse.errors import DataError, SolverError, UnreachableError
from netinverse.flows import (
    FlowSolution,
    assignment_shares,
    shortest_path,
    solve_multicommodity,
    write_flow_solution,
)
from netinverse.network import (
    CapacitySpec,
    DemandEntry,
    DemandTable,
    Link,
    Network,
    Path,
    enumerate_paths,
    path_cost,
)


class TestShortestPath:
    def test_benchmark_base_costs(self, nd_net):
        route, cost = shortest_path(nd_net, nd_net.base_costs(), ("1", "2"))
        assert route.links == (1, 5, 7, 9, 11)
        assert cost == 29.0

    def test_benchmark_with_surcharges(self, nd_net):
        costs = nd_net.base_costs()
        costs[1] += 7.0
        costs[7] += 5.0
        route, cost = shortest_path(nd_net, costs, ("1", "2"))
        assert route.links == (2, 18, 11)
        assert cost == 32.0

    def test_two_node_single_link(self):
        net = Network([Link(1, "a", "b", 3.0)])
        route, cost = shortest_path(net, {1: 3.0}, ("a", "b"))
        assert route.links == (1,) and cost == 3.0

    def test_unreachable(self, nd_net):
        with pytest.raises(UnreachableError):
            shortest_path(nd_net, nd_net.base_costs(), ("2", "1"))

    def test_coincident_endpoints_rejected(self, nd_net):
        with pytest.raises(DataError, match="coincide"):
            shortest_path(nd_net, nd_net.base_costs(), ("1", "1"))

    def test_negative_cost_rejected(self, toy_net):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(DataError, match=f"cost of link 1 is negative .*: {value}"):
                shortest_path(toy_net, {1: value, 2: 2.0, 3: 4.0}, ("O", "D"))

    def test_tie_break_lexicographic(self):
        net = Network(
            [
                Link(1, "a", "b", 1.0),
                Link(2, "a", "b", 1.0),
                Link(3, "b", "c", 1.0),
            ]
        )
        route, _ = shortest_path(net, {1: 1.0, 2: 1.0, 3: 1.0}, ("a", "c"))
        assert route.links == (1, 3)

    def test_tie_under_rounding_is_not_broken_by_link_sequence(self, fourlink_net):
        """(1,3,5) and (2,5) both cost 0.4 once rounded, and (2,5) is returned.

        Node 3 settles through link 2 at 0.3, before link 1 then 3 reach it
        at 0.30000000000000004, so the smaller sequence (1,3,5) never comes up.
        """

        costs = {1: 0.2, 2: 0.3, 3: 0.1, 4: 1.0, 5: 0.1}
        assert path_cost(fourlink_net, costs, Path("1", "4", (1, 3, 5))) == 0.4
        assert path_cost(fourlink_net, costs, Path("1", "4", (2, 5))) == 0.4
        route, cost = shortest_path(fourlink_net, costs, ("1", "4"))
        assert route.links == (2, 5) and cost == 0.4

    def test_oracle_equivalence_random_costs(self, nd_net, toy_net, fourlink_net):
        """Label-setting agrees with the minimum over full enumeration."""

        rng = np.random.default_rng(5)
        cases = [
            (nd_net, ("1", "2")),
            (nd_net, ("1", "3")),
            (nd_net, ("4", "2")),
            (nd_net, ("4", "3")),
            (toy_net, ("O", "D")),
            (fourlink_net, ("1", "4")),
        ]
        for net, od in cases:
            routes = enumerate_paths(net, od, 100)
            for _ in range(20):
                costs = {l.id: float(rng.uniform(0, 10)) for l in net.links}
                _, best = shortest_path(net, costs, od)
                oracle = min(path_cost(net, costs, p) for p in routes)
                assert abs(best - oracle) < 1e-9


class TestMulticommodity:
    def test_high_capacity_regime(self, nd_net, nd_demand, caps_800):
        sol = solve_multicommodity(nd_net, nd_demand, caps_800)
        assert abs(sol.total_cost - 68_400.0) < 1e-6
        assert abs(sol.duals[1] - 7.0) < 1e-6
        assert abs(sol.duals[7] - 5.0) < 1e-6

    def test_reduced_capacity_regime(self, nd_net, nd_demand, caps_500):
        sol = solve_multicommodity(nd_net, nd_demand, caps_500)
        assert abs(sol.total_cost - 70_000.0) < 1e-6
        assert abs(sol.duals[1] - 7.0) < 1e-6
        assert abs(sol.duals[7] - 6.0) < 1e-6

    def test_uncapacitated_matches_shortest_routes(self, nd_net, nd_demand):
        caps = CapacitySpec({1: 1e9, 7: 1e9})
        sol = solve_multicommodity(nd_net, nd_demand, caps)
        assert abs(sol.total_cost - 62_200.0) < 1e-6
        assert all(abs(d) < 1e-9 for d in sol.duals.values())

    def test_infeasible_capacities(self, nd_net):
        demand = DemandTable((DemandEntry("1", "2", 400.0),))
        # links 1 and 2 are the only ways out of node 1
        caps = CapacitySpec({1: 100.0, 2: 100.0})
        with pytest.raises(SolverError, match="infeasible"):
            solve_multicommodity(nd_net, demand, caps)

    def test_priced_only_rejected(self, nd_net, nd_demand, nd_priced):
        with pytest.raises(DataError, match="numeric"):
            solve_multicommodity(nd_net, nd_demand, nd_priced)

    def test_flow_conservation_and_capacity(self, nd_net, nd_demand, caps_800):
        sol = solve_multicommodity(nd_net, nd_demand, caps_800)
        for entry in nd_demand.entries:
            flows = sol.commodity_flows((entry.origin, entry.destination))
            for node in nd_net.nodes:
                out = sum(flows.get(l.id, 0.0) for l in nd_net.outgoing(node))
                into = sum(
                    flows.get(l.id, 0.0) for l in nd_net.links if l.head == node
                )
                expected = (
                    entry.flow
                    if node == entry.origin
                    else (-entry.flow if node == entry.destination else 0.0)
                )
                assert abs(out - into - expected) < 1e-7
        for lid, cap in caps_800.numeric().items():
            assert sol.link_flow(lid) <= cap + 1e-8

    def test_complementary_slackness(self, nd_net, nd_demand, caps_800, caps_500):
        for caps in (caps_800, caps_500):
            sol = solve_multicommodity(nd_net, nd_demand, caps)
            for lid, dual in sol.duals.items():
                if dual > 1e-7:
                    assert abs(sol.link_flow(lid) - caps.numeric()[lid]) < 1e-7

    def test_positive_flow_routes_are_shortest_under_surcharge(
        self, nd_net, nd_demand, caps_800, caps_500
    ):
        """Decomposition consistency: adding the duals to the base costs makes
        every flow-carrying route a minimum-cost route for its OD pair."""

        from netinverse.scenarios import decompose_path_flows

        for caps in (caps_800, caps_500):
            sol = solve_multicommodity(nd_net, nd_demand, caps)
            priced = {
                l.id: l.base_cost + sol.duals.get(l.id, 0.0) for l in nd_net.links
            }
            for commodity, routes in decompose_path_flows(nd_net, sol).items():
                _, best = shortest_path(nd_net, priced, commodity)
                for route, flow in routes.items():
                    if flow > 1e-9:
                        assert abs(path_cost(nd_net, priced, route) - best) < 1e-7

    def test_export_files(self, nd_net, nd_demand, caps_800, tmp_path):
        sol = solve_multicommodity(nd_net, nd_demand, caps_800)
        flows_file = tmp_path / "flows.csv"
        duals_file = tmp_path / "duals.csv"
        write_flow_solution(sol, flows_file, duals_file)
        assert flows_file.read_text().startswith("link_id,commodity,flow")
        lines = duals_file.read_text().splitlines()
        assert lines[0] == "link_id,dual"
        assert lines[1] == "1,7"

    @pytest.mark.parametrize("caps, flows_sha, duals_sha", [
        ("caps_800", "2451d4f0c8eeb99d8c9d4c41225d6b95bf6666ccdfa83b664170f05dabfb8ad0",
         "2975268a594aa568cc7d311af4b0b1900f0c2a9cb8d5043ad0274dd323b339e2"),
        ("caps_500", "e27b6a03708604cd2a593d1cf2138117d804ddfc741d2149ae971685a19fff70",
         "0b5fe76a7cb4952d23526a2e0ff371bf981baa9f4a262d0aada5e6b7ab8d4022"),
    ], ids=["caps_800", "caps_500"])
    def test_nd_exports_are_pinned(self, nd_net, nd_demand, caps, flows_sha, duals_sha,
                                   request, tmp_path):
        """The ND flow LP has one redundant balance row per commodity: its answers stay put."""

        sol = solve_multicommodity(nd_net, nd_demand, request.getfixturevalue(caps))
        flows_file, duals_file = tmp_path / "flows.csv", tmp_path / "duals.csv"
        write_flow_solution(sol, flows_file, duals_file)
        assert hashlib.sha256(flows_file.read_bytes()).hexdigest() == flows_sha
        assert hashlib.sha256(duals_file.read_bytes()).hexdigest() == duals_sha

    @pytest.mark.parametrize("network", ["nd_net", "queens_net"])
    def test_balance_rows_follow_the_links(self, network, request, monkeypatch):
        """Each commodity's balance row has +1 on each link out of its node, -1 on each into it.

        The destination's row is negated, so that its right-hand side is the
        flow, not minus the flow.
        """

        class Built(Exception):
            pass

        def stop(lp):
            raise Built(lp)

        net = request.getfixturevalue(network)
        nodes = sorted(net.nodes)
        demand = DemandTable(
            (DemandEntry(nodes[0], nodes[-1], 10.0), DemandEntry(nodes[-1], nodes[1], 5.0))
        )
        monkeypatch.setattr(flows, "solve", stop)
        with pytest.raises(Built) as built:
            solve_multicommodity(net, demand, CapacitySpec({}))
        lp = built.value.args[0]
        index = {lp.variable_name(j): j for j in range(lp.num_variables)}
        rows = {con.name: (dict(con.coeffs), rhs) for con, rhs in zip(lp._constraints, lp._rhs)}
        assert len(rows) == lp.num_constraints == 2 * len(nodes)
        for m, entry in enumerate(demand.entries):
            for node in nodes:
                sign = -1.0 if node == entry.destination else 1.0
                expected = {
                    index[f"x[{m}][{link.id}]"]: sign if link.tail == node else -sign
                    for link in net.links if node in (link.tail, link.head)
                }
                rhs = entry.flow if node in (entry.origin, entry.destination) else 0.0
                assert rows[f"balance[{m}][{node}]"] == (expected, rhs)

    def test_export_values_read_back_exactly(self, tmp_path):
        values = [1234567.25, 0.1 + 0.2, 2.5]
        sol = FlowSolution({(("a", "b"), k + 1): v for k, v in enumerate(values)},
                           {k + 1: v for k, v in enumerate(values)}, 0.0)
        flows_file = tmp_path / "flows.csv"
        duals_file = tmp_path / "duals.csv"
        write_flow_solution(sol, flows_file, duals_file)
        for f in (flows_file, duals_file):
            rows = f.read_text().splitlines()[1:]
            assert [float(row.rsplit(",", 1)[1]) for row in rows] == values
        assert duals_file.read_text().splitlines()[3] == "3,2.5"


class TestAssignmentShares:
    def test_identical_costs_single_route(self, fourlink_net):
        costs = [{i: 0.5 for i in range(1, 6)}] * 10
        # break the (1,4)/(2,5) tie so that a single route is selected
        for c in costs:
            c[4] = 0.4
        shares = assignment_shares(fourlink_net, costs, [("1", "4")] * 10)
        assert shares == {Path("1", "4", (1, 4)): 1.0}

    def test_two_route_shares_sum_to_one(self, fourlink_net):
        rng = np.random.default_rng(11)
        reduced = frozenset({1, 2, 4, 5})
        sub = Network([l for l in fourlink_net.links if l.id != 3])
        costs = []
        for _ in range(40):
            costs.append({l.id: float(rng.uniform(0.1, 1.0)) for l in sub.links})
        shares = assignment_shares(sub, costs, [("1", "4")] * 40)
        assert set(shares) <= {Path("1", "4", (1, 4)), Path("1", "4", (2, 5))}
        assert abs(sum(shares.values()) - 1.0) < 1e-12

    def test_observed_tie_credit(self, fourlink_net):
        """Ties are credited to the observed route when one is supplied."""

        uniform = {i: 0.5 for i in range(1, 6)}
        observed = [Path("1", "4", (1, 4)), Path("1", "4", (2, 5))]
        shares = assignment_shares(
            fourlink_net, [uniform, uniform], [("1", "4")] * 2, observed=observed
        )
        assert shares[observed[0]] == 0.5
        assert shares[observed[1]] == 0.5

    def test_length_mismatch_rejected(self, fourlink_net):
        with pytest.raises(DataError):
            assignment_shares(fourlink_net, [{1: 1.0}], [])
