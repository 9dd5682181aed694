"""Scenario parsing, population simulation, flow sampling, and streams."""

from collections import Counter

import numpy as np
import pytest

from netinverse.errors import DataError
from netinverse.flows import solve_multicommodity
from netinverse.network import (
    load_network,
    load_observations,
    validate_path,
    write_observations,
)
from netinverse.scenarios import (
    ScenarioSpec,
    Segment,
    build_regime_stream,
    decompose_path_flows,
    draw_perceived_costs,
    generate_observations,
    load_scenario,
    sample_flow_observations,
    simulate_gateway_stream,
    simulate_population,
)

CAPACITY_DROP_ROUTE = (4, 12, 14, 15)   # appears only under the tighter cap
HIGH_CAPACITY_ROUTE = (2, 17, 7, 10, 16)  # appears only under the looser cap


class TestScenarioFiles:
    def test_load_population_scenario(self, data_dir):
        spec = load_scenario(data_dir / "scenarios" / "population_independent.scn")
        assert spec.kind == "COST_HETEROGENEITY"
        assert spec.seed == 20170605
        assert spec.cost_mean_default == 0.5
        assert spec.cost_sd_default == 0.29

    def test_load_regime_scenario(self, data_dir):
        spec = load_scenario(data_dir / "scenarios" / "regime_stream.scn")
        assert spec.kind == "REGIME_STREAM"
        assert [s.count for s in spec.segments] == [100, 100, 100]

    def test_missing_file_reference(self, tmp_path):
        f = tmp_path / "bad.scn"
        f.write_text("kind = REPLAY\nnetwork = nowhere.csv\nseed = 1\n")
        with pytest.raises(DataError, match="does not exist"):
            load_scenario(f)

    def test_unknown_kind(self, tmp_path, data_dir):
        f = tmp_path / "bad.scn"
        f.write_text(
            f"kind = NOPE\nnetwork = {data_dir / 'nd_links.csv'}\nseed = 1\n"
        )
        with pytest.raises(DataError, match="unknown scenario kind"):
            load_scenario(f)

    def test_bad_correlation_rejected(self):
        with pytest.raises(DataError, match="correlation"):
            ScenarioSpec(
                kind="COST_HETEROGENEITY",
                network_file="x",
                seed=1,
                correlations=((3, 5, 1.5),),
            )

    def test_negative_sd_rejected(self):
        with pytest.raises(DataError, match="standard deviations"):
            ScenarioSpec(
                kind="COST_HETEROGENEITY", network_file="x", seed=1, cost_sd_default=-1.0
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="bad value for 'seed': must be >= 0, got -3"):
            ScenarioSpec(kind="COST_HETEROGENEITY", network_file="x", seed=-3)

    @pytest.mark.parametrize("lines, message", [
        ("means.3 = 9", "unknown key 'means.3'"),
        ("stddev = 2", "unknown key 'stddev'"),
        ("seed = 2", "repeated key 'seed'"),
        ("mean.3 = 1\nmean.03 = 2", "repeated key 'mean.03'"),
        ("[segment]\ncount = 1\ncount = 2", "repeated key 'count'"),
        ("[segment]\ncount = 1\nbogus = 2", "unknown key 'bogus'"),
        ("[segment]\ncount = 1", "missing required key 'capacities'"),
    ])
    def test_unknown_repeated_or_missing_key(self, tmp_path, data_dir, lines, message):
        f = tmp_path / "bad.scn"
        f.write_text(f"kind = REPLAY\nnetwork = {data_dir / 'queens_links.csv'}\nseed = 1\n"
                     f"{lines}\n")
        with pytest.raises(DataError) as exc:
            load_scenario(f)
        assert str(exc.value) == f"{f}: {message}"

    def test_each_correlation_line_adds_a_pair(self, tmp_path, data_dir):
        shipped = (data_dir / "scenarios" / "population_correlated.scn").read_text()
        f = tmp_path / "two.scn"
        f.write_text(shipped.replace("= ../", f"= {data_dir}/") + "correlation = 1,2,-0.2\n")
        spec = load_scenario(f)
        assert spec.correlations == ((3, 5, 0.35), (1, 2, -0.2))
        assert len(simulate_population(spec)) == 500

    def test_spec_errors_name_the_file(self, tmp_path, data_dir):
        f = tmp_path / "bad.scn"
        f.write_text(f"kind = REPLAY\nnetwork = {data_dir / 'queens_links.csv'}\nseed = 1\n"
                     "steps = 3\nsd.4 = -1\n")
        with pytest.raises(DataError) as exc:
            load_scenario(f)
        assert str(exc.value).startswith(f"{f}: bad value for 'sd.4': standard deviations")

    # every key each kind requires; the [segment] comes after the extra lines of a test
    REQUIRED = {
        "COST_HETEROGENEITY": "demand = {data}/fourlink_demand.csv",
        "FLOW_SAMPLING": "demand = {data}/nd_demand.csv\ncapacities = {data}/nd_caps_800.csv\n"
                         "samples = 3",
        "REGIME_STREAM": "demand = {data}/nd_demand.csv\n"
                         "[segment]\ncapacities = {data}/nd_caps_500.csv\ncount = 2",
        "REPLAY": "",
    }

    def scenario(self, tmp_path, data_dir, kind, extra, required=None):
        network = {"COST_HETEROGENEITY": "fourlink_links.csv", "REPLAY": "queens_links.csv"}
        f = tmp_path / "kind.scn"
        f.write_text((f"kind = {kind}\nnetwork = {{data}}/{network.get(kind, 'nd_links.csv')}\n"
                      f"seed = 1\n{extra}\n{self.REQUIRED[kind] if required is None else required}\n"
                      ).format(data=data_dir))
        return f

    @pytest.mark.parametrize("kind, extra, key", [
        ("REPLAY", "mean = 3\nsamples = 4\n[segment]\ncapacities = {data}/nd_caps_500.csv\n"
                   "count = 1", "mean"),
        ("REPLAY", "samples = 4", "samples"),
        ("REPLAY", "[segment]\ncapacities = {data}/nd_caps_500.csv\ncount = 1", "[segment]"),
        ("REPLAY", "demand = {data}/nd_demand.csv", "demand"),
        ("FLOW_SAMPLING", "steps = 5", "steps"),
        ("FLOW_SAMPLING", "correlation = 1,2,0.5", "correlation"),
        ("FLOW_SAMPLING", "mean.3 = 1", "mean.3"),
        ("REGIME_STREAM", "samples = 9", "samples"),
        ("REGIME_STREAM", "capacities = {data}/nd_caps_800.csv", "capacities"),
        ("COST_HETEROGENEITY", "step_minutes = 2", "step_minutes"),
    ])
    def test_key_the_kind_does_not_take(self, tmp_path, data_dir, kind, extra, key):
        f = self.scenario(tmp_path, data_dir, kind, extra)
        with pytest.raises(DataError) as exc:
            load_scenario(f)
        assert str(exc.value) == f"{f}: a {kind} scenario does not take {key!r}"

    @pytest.mark.parametrize("kind, required, key", [
        ("COST_HETEROGENEITY", "mean = 1", "demand"),
        ("FLOW_SAMPLING", "demand = {data}/nd_demand.csv\nsamples = 3", "capacities"),
        ("FLOW_SAMPLING", "demand = {data}/nd_demand.csv\ncapacities = {data}/nd_caps_800.csv",
         "samples"),
        ("REGIME_STREAM", "demand = {data}/nd_demand.csv", "[segment]"),
        ("REGIME_STREAM", "[segment]\ncapacities = {data}/nd_caps_500.csv\ncount = 2", "demand"),
    ])
    def test_key_the_kind_requires(self, tmp_path, data_dir, kind, required, key):
        f = self.scenario(tmp_path, data_dir, kind, "", required)
        with pytest.raises(DataError) as exc:
            load_scenario(f)
        assert str(exc.value) == f"{f}: a {kind} scenario requires {key!r}"

    def test_library_spec_needs_the_same_keys(self):
        with pytest.raises(DataError) as exc:
            ScenarioSpec(kind="FLOW_SAMPLING", network_file="x", seed=1, demand_file="d",
                         capacity_file="c")
        assert str(exc.value) == "a FLOW_SAMPLING scenario requires 'samples'"


class TestSimulatePopulation:
    def test_independent_route_shares(self, data_dir):
        spec = load_scenario(data_dir / "scenarios" / "population_independent.scn")
        obs = simulate_population(spec)
        assert len(obs) == 500
        shares = Counter(ob.path.links for ob in obs)
        assert abs(shares[(1, 4)] / 500 - 0.48) < 0.05
        assert abs(shares[(2, 5)] / 500 - 0.48) < 0.05
        assert abs(shares[(1, 3, 5)] / 500 - 0.04) < 0.05

    def test_agents_on_one_route_share_its_path(self, data_dir):
        spec = load_scenario(data_dir / "scenarios" / "population_independent.scn")
        obs = simulate_population(spec)
        assert len({id(ob.path) for ob in obs}) == len({ob.path for ob in obs}) <= 3

    def test_zero_spread_single_route(self, data_dir, tmp_path):
        f = tmp_path / "flat.scn"
        f.write_text(
            f"kind = COST_HETEROGENEITY\n"
            f"network = {data_dir / 'fourlink_links.csv'}\n"
            f"demand = {data_dir / 'fourlink_demand.csv'}\n"
            f"seed = 3\nmean = 0.5\nsd = 0\nmean.4 = 0.4\n"
        )
        obs = simulate_population(load_scenario(f))
        shares = Counter(ob.path.links for ob in obs)
        assert shares == {(1, 4): 500}

    def test_correlated_draws(self, data_dir, fourlink_net):
        spec = load_scenario(data_dir / "scenarios" / "population_correlated.scn")
        rng = np.random.default_rng(spec.seed)
        costs = draw_perceived_costs(fourlink_net, spec, 500, rng)
        c3 = np.array([c[3] for c in costs])
        c5 = np.array([c[5] for c in costs])
        assert abs(np.corrcoef(c3, c5)[0, 1] - 0.35) < 0.08

    def test_perceived_costs_are_python_floats(self, data_dir, fourlink_net):
        spec = load_scenario(data_dir / "scenarios" / "population_correlated.scn")
        costs = draw_perceived_costs(fourlink_net, spec, 3, np.random.default_rng(spec.seed))
        assert {type(c) for agent in costs for c in agent.values()} == {float}

    def test_degenerate_distribution_rejected(self, data_dir, fourlink_net):
        spec = ScenarioSpec(
            kind="COST_HETEROGENEITY",
            network_file=str(data_dir / "fourlink_links.csv"),
            seed=1,
            demand_file=str(data_dir / "fourlink_demand.csv"),
            cost_mean_default=0.5,
            cost_means={2: -1.0},
        )
        rng = np.random.default_rng(1)
        with pytest.raises(DataError, match="degenerate"):
            draw_perceived_costs(fourlink_net, spec, 10, rng)

    @pytest.mark.parametrize("lines, links", [
        ("mean.99 = 5\nsd.42 = 1", "[42, 99]"),
        ("mean.99 = 5", "[99]"),
        ("sd.7 = 0.1", "[7]"),
        ("correlation = 1,6,0.2", "[6]"),
    ])
    def test_per_link_keys_name_links_of_the_network(self, data_dir, tmp_path, lines, links):
        f = tmp_path / "links.scn"
        f.write_text(f"kind = COST_HETEROGENEITY\nnetwork = {data_dir / 'fourlink_links.csv'}\n"
                     f"demand = {data_dir / 'fourlink_demand.csv'}\nseed = 1\n"
                     f"mean = 1\nsd = 0.3\n{lines}\n")
        with pytest.raises(DataError) as exc:
            simulate_population(load_scenario(f))
        assert str(exc.value) == f"scenario names links {links} the network lacks"

    def test_costs_truncated_at_zero(self, data_dir, fourlink_net):
        spec = load_scenario(data_dir / "scenarios" / "population_independent.scn")
        rng = np.random.default_rng(0)
        costs = draw_perceived_costs(fourlink_net, spec, 2000, rng)
        values = np.array([[c[i] for i in range(1, 6)] for c in costs])
        assert values.min() >= 0.0
        assert (values == 0.0).any()  # truncation visibly active at this spread


class TestFlowSampling:
    def test_only_flow_carrying_routes_sampled(self, data_dir, nd_net, nd_demand, caps_800):
        spec = load_scenario(data_dir / "scenarios" / "flow_sampling_800.scn")
        obs = sample_flow_observations(spec)
        assert len(obs) == 100
        solution = solve_multicommodity(nd_net, nd_demand, caps_800)
        supported = {
            route.links
            for routes in decompose_path_flows(nd_net, solution).values()
            for route in routes
        }
        assert {ob.path.links for ob in obs} <= supported

    def test_decomposition_recovers_link_flows(self, nd_net, nd_demand, caps_800):
        solution = solve_multicommodity(nd_net, nd_demand, caps_800)
        decomposition = decompose_path_flows(nd_net, solution)
        for commodity, routes in decomposition.items():
            rebuilt: dict[int, float] = {}
            for route, flow in routes.items():
                for lid in route.links:
                    rebuilt[lid] = rebuilt.get(lid, 0.0) + flow
            for lid, flow in solution.commodity_flows(commodity).items():
                assert abs(rebuilt.get(lid, 0.0) - flow) < 1e-6

    def test_single_route_network(self, tmp_path, data_dir):
        links = tmp_path / "links.csv"
        links.write_text("link_id,start_node,end_node,cost\n1,a,b,5\n")
        demand = tmp_path / "demand.csv"
        demand.write_text("origin,destination,flow\na,b,10\n")
        caps = tmp_path / "caps.csv"
        caps.write_text("link_id,capacity\n1,50\n")
        spec = ScenarioSpec(
            kind="FLOW_SAMPLING",
            network_file=str(links),
            seed=9,
            demand_file=str(demand),
            capacity_file=str(caps),
            samples=7,
        )
        obs = sample_flow_observations(spec)
        assert len(obs) == 7
        assert all(ob.path.links == (1,) for ob in obs)

    def test_regime_exclusive_routes(self, data_dir, nd_net, nd_demand, caps_800, caps_500):
        high = decompose_path_flows(
            nd_net, solve_multicommodity(nd_net, nd_demand, caps_800)
        )
        low = decompose_path_flows(
            nd_net, solve_multicommodity(nd_net, nd_demand, caps_500)
        )
        high_routes = {r.links for routes in high.values() for r in routes}
        low_routes = {r.links for routes in low.values() for r in routes}
        assert CAPACITY_DROP_ROUTE in low_routes - high_routes
        assert HIGH_CAPACITY_ROUTE in high_routes - low_routes


class TestRegimeStream:
    def test_stream_shape(self, data_dir):
        spec = load_scenario(data_dir / "scenarios" / "regime_stream.scn")
        stream = build_regime_stream(spec)
        assert len(stream) == 300
        assert [ob.timestamp for ob in stream] == [float(t) for t in range(1, 301)]

    def test_zero_count_segment_contributes_nothing(self, data_dir):
        base = load_scenario(data_dir / "scenarios" / "regime_stream.scn")
        spec = ScenarioSpec(
            kind="REGIME_STREAM",
            network_file=base.network_file,
            seed=base.seed,
            demand_file=base.demand_file,
            segments=(
                base.segments[0],
                Segment(base.segments[1].capacity_file, 0),
            ),
        )
        stream = build_regime_stream(spec)
        assert len(stream) == 100

    def test_single_segment_is_plain_sample(self, data_dir):
        base = load_scenario(data_dir / "scenarios" / "regime_stream.scn")
        spec = ScenarioSpec(
            kind="REGIME_STREAM",
            network_file=base.network_file,
            seed=base.seed,
            demand_file=base.demand_file,
            segments=(base.segments[0],),
        )
        stream = build_regime_stream(spec)
        assert len(stream) == 100
        assert all(ob.timestamp == t + 1 for t, ob in enumerate(stream))


class TestGatewayStream:
    def test_synthetic_replay(self, data_dir, queens_net):
        spec = load_scenario(data_dir / "scenarios" / "queens_replay.scn")
        obs = simulate_gateway_stream(spec)
        assert len(obs) == 37
        assert obs[0].timestamp == 0.0
        assert obs[-1].timestamp == 180.0
        for ob in obs:
            validate_path(queens_net, ob.path)
            assert ob.path.origin[0] != ob.path.destination[0]

    def test_requires_gateway_nodes(self, data_dir):
        spec = ScenarioSpec(
            kind="REPLAY", network_file=str(data_dir / "nd_links.csv"), seed=1
        )
        with pytest.raises(DataError, match="gateway"):
            simulate_gateway_stream(spec)


class TestDeterminismAndValidity:
    def test_identical_seed_byte_identical_files(self, data_dir, tmp_path):
        spec = load_scenario(data_dir / "scenarios" / "flow_sampling_800.scn")
        files = []
        for name in ("a.csv", "b.csv"):
            obs, header = generate_observations(spec)
            path = tmp_path / name
            write_observations(obs, path, header_comments=header)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_every_generated_observation_validates(self, data_dir):
        for name in (
            "population_independent.scn",
            "flow_sampling_800.scn",
            "regime_stream.scn",
            "queens_replay.scn",
        ):
            spec = load_scenario(data_dir / "scenarios" / name)
            obs, _ = generate_observations(spec)
            net = load_network(spec.network_file)
            for ob in obs:
                validate_path(net, ob.path)

    def test_seed_recorded_in_header(self, data_dir, tmp_path):
        spec = load_scenario(data_dir / "scenarios" / "queens_replay.scn")
        obs, header = generate_observations(spec)
        out = tmp_path / "obs.csv"
        write_observations(obs, out, header_comments=header)
        text = out.read_text()
        assert "seed=630" in text.splitlines()[0]
        assert "synthetic=true" in text
        # and the file loads back
        loaded = load_observations(out, load_network(spec.network_file))
        assert len(loaded) == 37
