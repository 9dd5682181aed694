"""Network data model, file ingestion, and path utilities."""

import csv
import math
import random
import re
from itertools import islice

import numpy as np
import pytest

from netinverse.errors import DataError
from netinverse.flows import shortest_path
from netinverse.inverse import infer_dual_prices
from netinverse.learner import OnlineState
from netinverse.network import (
    CapacitySpec,
    Link,
    Network,
    Path,
    _simple_paths,
    enumerate_paths,
    load_capacities,
    load_demand,
    load_network,
    load_observations,
    load_prices,
    path_cost,
    validate_path,
    write_network,
    write_observations,
)
from netinverse.network import Observation
from test_inverse import grid

# Every simple route of the 13-node benchmark network, by OD pair:
# (link sequence, length).  Used as the enumeration oracle.
BENCHMARK_ROUTES = {
    ("1", "2"): [
        ((1, 5, 7, 9, 11), 29),
        ((1, 5, 7, 10, 15), 33),
        ((1, 5, 8, 14, 15), 38),
        ((1, 6, 12, 14, 15), 41),
        ((2, 17, 7, 9, 11), 35),
        ((2, 17, 7, 10, 15), 39),
        ((2, 17, 8, 14, 15), 44),
        ((2, 18, 11), 32),
    ],
    ("4", "2"): [
        ((3, 5, 7, 9, 11), 31),
        ((3, 5, 7, 10, 15), 35),
        ((3, 5, 8, 14, 15), 40),
        ((3, 6, 12, 14, 15), 43),
        ((4, 12, 14, 15), 37),
    ],
    ("1", "3"): [
        ((1, 5, 7, 10, 16), 32),
        ((1, 5, 8, 14, 16), 37),
        ((1, 6, 12, 14, 16), 40),
        ((1, 6, 13, 19), 36),
        ((2, 17, 7, 10, 16), 38),
        ((2, 17, 8, 14, 16), 43),
    ],
    ("4", "3"): [
        ((3, 5, 7, 10, 16), 34),
        ((3, 5, 8, 14, 16), 39),
        ((3, 6, 12, 14, 16), 42),
        ((3, 6, 13, 19), 38),
        ((4, 12, 14, 16), 36),
        ((4, 13, 19), 32),
    ],
}


class TestLoadNetwork:
    def test_queens_spot_rows(self, queens_net):
        link = queens_net.link(1)
        assert (link.tail, link.head, link.base_cost) == ("W1", "1", 211.0)
        link = queens_net.link(7)
        assert (link.tail, link.head, link.base_cost) == ("3", "N1", 39.0)

    def test_queens_shape(self, queens_net):
        assert len(queens_net.links) == 40
        gateways = {n for n in queens_net.nodes if not n.isdigit()}
        assert gateways == {"W1", "W2", "N1", "N2", "S1", "S2", "E1", "E2"}
        assert len(queens_net.nodes) == 17

    def test_empty_file_after_header(self, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("link_id,start_node,end_node,cost\n")
        with pytest.raises(DataError, match="no links"):
            load_network(f)

    def test_duplicate_link_id(self, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("link_id,start_node,end_node,cost\n1,a,b,1\n1,b,c,2\n")
        with pytest.raises(DataError, match="duplicate link id 1"):
            load_network(f)

    def test_malformed_row_reports_line_number(self, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("link_id,start_node,end_node,cost\n1,a,b,1\nx,b,c,2\n")
        with pytest.raises(DataError, match="links.csv:3"):
            load_network(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("id,from,to,cost\n1,a,b,1\n")
        with pytest.raises(DataError, match="expected header"):
            load_network(f)

    def test_negative_cost_rejected(self, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("link_id,start_node,end_node,cost\n1,a,b,-3\n")
        with pytest.raises(DataError):
            load_network(f)

    def test_crlf_and_whitespace_tolerated(self, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("link_id,start_node,end_node,cost\r\n 1 , a , b , 1.5 \r\n")
        net = load_network(f)
        assert net.link(1).base_cost == 1.5

    def test_round_trip(self, nd_net, tmp_path):
        out = tmp_path / "roundtrip.csv"
        write_network(nd_net, out)
        assert load_network(out) == nd_net

    def test_demand_dangling_node(self, nd_net, tmp_path):
        f = tmp_path / "demand.csv"
        f.write_text("origin,destination,flow\n1,99,10\n")
        with pytest.raises(DataError, match="unknown node"):
            load_demand(f, nd_net)

    def test_capacity_priced_marker(self, nd_net, tmp_path):
        f = tmp_path / "caps.csv"
        f.write_text("link_id,capacity\n1,400\n7,priced\n")
        spec = load_capacities(f, nd_net)
        assert spec.entries[1] == 400.0
        assert spec.entries[7] is None
        with pytest.raises(DataError, match=r"links \[7\] carry no numeric capacity"):
            spec.numeric()


class TestValidatePath:
    def test_benchmark_route_ok(self, nd_net):
        validate_path(nd_net, Path("1", "2", (2, 18, 11)))

    def test_disconnected_sequence(self, nd_net):
        with pytest.raises(DataError, match="not connected"):
            validate_path(nd_net, Path("1", "7", (1, 7)))

    def test_endpoint_mismatch(self, nd_net):
        with pytest.raises(DataError, match="destination"):
            validate_path(nd_net, Path("1", "3", (1, 5, 7, 9, 11)))

    def test_unknown_link(self, nd_net):
        with pytest.raises(DataError, match="unknown link"):
            validate_path(nd_net, Path("1", "2", (1, 99)))

    def test_origin_mismatch(self, nd_net):
        with pytest.raises(DataError, match="origin"):
            validate_path(nd_net, Path("4", "2", (1, 5, 7, 9, 11)))

    def test_repeated_node_rejected(self):
        net = Network(
            [
                Link(1, "a", "b", 1.0),
                Link(2, "b", "c", 1.0),
                Link(3, "c", "b", 1.0),
                Link(4, "b", "d", 1.0),
            ]
        )
        with pytest.raises(DataError, match="revisits"):
            validate_path(net, Path("a", "d", (1, 2, 3, 4)))


class TestPathCost:
    def test_benchmark_lengths(self, nd_net):
        base = nd_net.base_costs()
        assert path_cost(nd_net, base, Path("1", "2", (1, 5, 7, 9, 11))) == 29
        assert path_cost(nd_net, base, Path("1", "2", (2, 18, 11))) == 32

    def test_zero_costs(self, nd_net):
        zeros = {l.id: 0.0 for l in nd_net.links}
        assert path_cost(nd_net, zeros, Path("1", "2", (2, 18, 11))) == 0.0

    def test_missing_entry(self, nd_net):
        with pytest.raises(DataError, match="no cost entry"):
            path_cost(nd_net, {2: 1.0}, Path("1", "2", (2, 18, 11)))

    def test_linearity(self, nd_net):
        rng = random.Random(7)
        route = Path("1", "3", (2, 17, 8, 14, 16))
        for _ in range(25):
            c1 = {l.id: rng.uniform(0, 10) for l in nd_net.links}
            c2 = {l.id: rng.uniform(0, 10) for l in nd_net.links}
            combined = {k: c1[k] + c2[k] for k in c1}
            lhs = path_cost(nd_net, combined, route)
            rhs = path_cost(nd_net, c1, route) + path_cost(nd_net, c2, route)
            assert abs(lhs - rhs) < 1e-9


class TestEnumeratePaths:
    def test_benchmark_full_enumeration(self, nd_net):
        """The 25 enumerable routes, with exact link sequences and lengths."""

        base = nd_net.base_costs()
        total = 0
        for od, expected in BENCHMARK_ROUTES.items():
            found = enumerate_paths(nd_net, od, 100)
            got = {(p.links, path_cost(nd_net, base, p)) for p in found}
            assert got == {(links, float(cost)) for links, cost in expected}
            total += len(found)
        assert total == 25

    def test_sorted_by_cost_and_truncated(self, nd_net):
        base = nd_net.base_costs()
        found = enumerate_paths(nd_net, ("1", "2"), 3)
        costs = [path_cost(nd_net, base, p) for p in found]
        assert costs == [29, 32, 33]

    def test_unconnected_pair_is_empty(self, nd_net):
        assert enumerate_paths(nd_net, ("2", "1"), 10) == []

    def test_coincident_endpoints_empty(self, nd_net):
        assert enumerate_paths(nd_net, ("1", "1"), 10) == []

    def test_single_link_network(self):
        net = Network([Link(1, "a", "b", 2.0)])
        found = enumerate_paths(net, ("a", "b"), 5)
        assert [p.links for p in found] == [(1,)]

    def test_parallel_links(self, toy_net):
        found = enumerate_paths(toy_net, ("O", "D"), 10)
        assert [p.links for p in found] == [(1,), (2,), (3,)]

    def test_grid_with_links_both_ways(self):
        assert len(enumerate_paths(grid(4, np.random.default_rng(1)), ("0.0", "3.3"), 1000)) == 184

    def test_first_routes_come_without_searching_dead_ends(self, monkeypatch):
        """An 8 x 8 grid's first 65 routes between corners cost under 1000 steps of the search.

        Without pruning, the depth-first search walks every self-avoiding walk
        of a pocket the partial route has closed off, exponentially many.
        """

        net, steps = grid(8, np.random.default_rng(1)), []
        outgoing = net.outgoing

        def counted(node):
            steps.append(node)
            assert len(steps) < 10**4, "the search is walking dead ends"
            return outgoing(node)

        monkeypatch.setattr(net, "outgoing", counted)
        assert len(list(islice(_simple_paths(net, ("7.7", "0.0")), 65))) == 65
        assert len(steps) < 1000


class TestObservations:
    def test_round_trip(self, nd_net, tmp_path):
        obs = [
            Observation("a1", Path("1", "2", (2, 18, 11)), timestamp=3.0),
            Observation("a2", Path("4", "3", (4, 13, 19))),
        ]
        f = tmp_path / "obs.csv"
        write_observations(obs, f, header_comments=["generator=pcg64 seed=1"])
        loaded = load_observations(f, nd_net)
        assert [(o.agent_id, o.path, o.timestamp) for o in loaded] == [
            ("a1", Path("1", "2", (2, 18, 11)), 3.0),
            ("a2", Path("4", "3", (4, 13, 19)), None),
        ]

    def test_invalid_route_rejected_with_line(self, nd_net, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na1,,1,2,1;7\n"
        )
        with pytest.raises(DataError, match="obs.csv:2"):
            load_observations(f, nd_net)

    def test_equal_route_text_shares_one_path(self, nd_net, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("agent_id,timestamp,origin,destination,link_seq\n"
                     "a,,1,2,2;18;11\nb,,4,3,4;13;19\nc,5,1,2,2;18;11\nd,,1,2,2;18;11\n")
        a, b, c, d = load_observations(f, nd_net)
        assert a.path is c.path is d.path
        assert b.path is not a.path
        assert [(o.agent_id, o.timestamp) for o in (a, c, d)] == [("a", None), ("c", 5.0),
                                                                   ("d", None)]

    @pytest.mark.parametrize("row", ["e,,1,2,1;7", "e,x,1,2,2;18;11", "e,inf,1,2,2;18;11"])
    def test_bad_row_after_shared_routes_names_its_line(self, nd_net, tmp_path, row):
        f = tmp_path / "obs.csv"
        f.write_text("agent_id,timestamp,origin,destination,link_seq\n"
                     + "a,,1,2,2;18;11\n" * 3 + row + "\n")
        with pytest.raises(DataError, match=re.escape(f"{f}:5: ")):
            load_observations(f, nd_net)

    def test_distinct_routes_load_as_written(self, nd_net, tmp_path):
        obs = [
            Observation(f"a{k}", route, timestamp=float(k))
            for k, route in enumerate(
                route for od in BENCHMARK_ROUTES for route in enumerate_paths(nd_net, od, 100)
            )
        ]
        f = tmp_path / "obs.csv"
        write_observations(obs, f)
        loaded = load_observations(f, nd_net)
        assert loaded == obs
        assert len({id(o.path) for o in loaded}) == len(obs) == 25

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DataError, match="weight"):
            Observation("a", Path("1", "2", (2,)), weight=0.0)

    @pytest.mark.parametrize("stamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, stamp):
        with pytest.raises(DataError, match="non-finite timestamp"):
            Observation("a", Path("1", "2", (2,)), timestamp=stamp)


# one loader per CSV format: (header, a valid row, the row with one number made non-numeric, load)
FORMATS = {
    "links": ("link_id,start_node,end_node,cost", "1,a,b,1", "1,a,b,x",
              lambda f, net: load_network(f)),
    "demand": ("origin,destination,flow", "1,2,10", "1,2,x", load_demand),
    "capacities": ("link_id,capacity", "1,400", "1,x", load_capacities),
    "observations": ("agent_id,timestamp,origin,destination,link_seq", "a,1,1,2,2;18;11",
                     "a,x,1,2,2;18;11", load_observations),
    "prices": ("link_id,value", "1,0.5", "1,x", lambda f, net: load_prices(f, (1, 7))),
}


class TestReader:
    @pytest.mark.parametrize("fault", ["wrong header", "field too many", "non-numeric number"])
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_bad_input_names_file_and_line(self, nd_net, tmp_path, fmt, fault):
        header, row, non_numeric, load = FORMATS[fmt]
        lines, lineno = {
            "wrong header": ([",".join(reversed(header.split(","))), row], 1),
            "field too many": ([header, row, row + ",9"], 3),
            "non-numeric number": ([header, row, non_numeric], 3),
        }[fault]
        f = tmp_path / f"{fmt}.csv"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{f}:{lineno}: ")):
            load(f, nd_net)

    def test_comments_and_blank_lines_keep_line_numbers(self, nd_net, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("# made by hand\n\nagent_id,timestamp,origin,destination,link_seq\n"
                     "  # skipped\n\na,,1,2,2;18;11\nb,,1,2,7\n")
        with pytest.raises(DataError, match=re.escape(f"{f}:7: ")):
            load_observations(f, nd_net)


class TestLinkValues:
    """Each caller of the one link-value check names the first link it finds at fault."""

    @pytest.mark.parametrize("call, message", [
        (lambda net, f: shortest_path(net, {1: 1.0, 2: 2.0}, ("O", "D")),
         "cost has no entry for link 3"),
        (lambda net, f: shortest_path(net, {1: -0.5, 2: 2.0, 3: 4.0}, ("O", "D")),
         "cost of link 1 is negative or not finite: -0.5"),
        (lambda net, f: shortest_path(net, {1: 1.0, 2: math.nan, 3: -1.0}, ("O", "D")),
         "cost of link 2 is negative or not finite: nan"),
        (lambda net, f: shortest_path(net, {1: 1.0, 2: 2.0, 3: math.inf}, ("O", "D")),
         "cost of link 3 is negative or not finite: inf"),
        (lambda net, f: infer_dual_prices(net, {1: 1.0, 2: 2.0}, CapacitySpec.priced_only([1, 2]),
                                          {1: 0.0, 2: 0.0}, Path("O", "D", (1,))),
         "base cost has no entry for link 3"),
        (lambda net, f: OnlineState({1: 0.5, 2: -1.0}),
         "online price of link 2 is negative or not finite: -1.0"),
        (lambda net, f: load_prices(f, (1, 7)), "{f}: price has no entry for link 7"),
    ], ids=["cost missing", "cost negative", "cost nan", "cost inf", "base cost missing",
            "online price negative", "price file without link 7"])
    def test_first_bad_link_named(self, toy_net, tmp_path, call, message):
        f = tmp_path / "prices.csv"
        f.write_text("link_id,value\n1,0.5\n")
        with pytest.raises(DataError) as raised:
            call(toy_net, f)
        assert str(raised.value) == message.format(f=f)


class TestWrittenFilesReadBack:
    def test_network_round_trip(self, tmp_path):
        net = Network([
            Link(1, "New York", "b", 0.1 + 0.2),
            Link(2, "b", "c-1", 1234567.25),
            Link(3, "c-1", "New York", 3.0),
            Link(4, "b", "New York", 1e-7),
            Link(5, "c-1", "b", 1234567.0),
            Link(6, "New York", "c-1", 1e16),
        ])
        f = tmp_path / "links.csv"
        write_network(net, f)
        assert load_network(f) == net

    def test_observations_round_trip(self, nd_net, tmp_path):
        stamps = [None, 0.0, 1.0, 1234567.25, 0.1 + 0.2, -2.5, 1e-300, 1e300, 2.0**53 + 2]
        obs = [
            Observation(f"agent {i}", Path("1", "2", (2, 18, 11)), timestamp=stamp)
            for i, stamp in enumerate(stamps)
        ]
        f = tmp_path / "obs.csv"
        write_observations(obs, f, header_comments=["made by hand"])
        loaded = load_observations(f, nd_net)
        assert [(o.agent_id, o.path, o.timestamp) for o in loaded] == [
            (o.agent_id, o.path, o.timestamp) for o in obs
        ]

    def test_timestamps_keep_their_short_form_where_it_is_exact(self, tmp_path):
        obs = [Observation("a", Path("1", "2", (2,)), timestamp=t) for t in (1.0, 2.5, 1e-7)]
        f = tmp_path / "obs.csv"
        write_observations(obs, f)
        assert [r["timestamp"] for r in csv.DictReader(f.read_text().splitlines())] == [
            "1", "2.5", "1e-07"
        ]


BAD_IDS = ["", " a", "a ", "b,c", "a\nb", "a\r\nb", "a\u2028b"]


class TestIdsThatWouldNotReadBack:
    @pytest.mark.parametrize("agent_id", BAD_IDS + ["#a"])
    def test_agent_id_refused(self, agent_id):
        with pytest.raises(DataError, match=re.escape(repr(agent_id))):
            Observation(agent_id, Path("1", "2", (2,)))

    @pytest.mark.parametrize("node", BAD_IDS)
    def test_link_node_id_refused(self, node):
        with pytest.raises(DataError, match=re.escape(repr(node))):
            Link(1, node, "b", 1.0)

    @pytest.mark.parametrize("node", BAD_IDS)
    def test_route_node_id_refused_before_writing(self, tmp_path, node):
        f = tmp_path / "obs.csv"
        obs = [Observation("a", Path("1", "2", (2,))), Observation("b", Path(node, "2", (2,)))]
        with pytest.raises(DataError, match=re.escape(repr(node))):
            write_observations(obs, f)
        assert not f.exists()

    def test_inner_spaces_and_hashes_read_back(self, tmp_path):
        net = Network([Link(1, "New York", "#b", 1.0), Link(2, "#b", "c d", 1.0)])
        obs = [Observation("a #1", Path("New York", "c d", (1, 2)))]
        write_network(net, tmp_path / "links.csv")
        write_observations(obs, tmp_path / "obs.csv")
        assert load_network(tmp_path / "links.csv") == net
        loaded = load_observations(tmp_path / "obs.csv", net)
        assert [(o.agent_id, o.path) for o in loaded] == [(o.agent_id, o.path) for o in obs]
