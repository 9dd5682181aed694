"""Command-line interface: subcommands, exit codes, replay equivalence."""

import csv
import json

import pytest

from netinverse.cli import main
from netinverse.learner import OnlineState, load_state, online_update
from netinverse.network import (
    CapacitySpec,
    load_network,
    load_observations,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    """The rows of a CSV file with a header, as dicts."""

    return list(csv.DictReader(path.read_text().splitlines()))


class TestNetValidate:
    def test_queens_network_ok(self, capsys, data_dir):
        code, out, _ = run(capsys, "net", "validate", str(data_dir / "queens_links.csv"))
        assert code == 0
        assert "ok" in out
        assert "17 nodes, 40 links" in out

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "net", "validate", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "data error" in err

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "links.csv"
        f.write_text("link_id,start_node,end_node,cost\n1,a,a,3\n")
        code, _, err = run(capsys, "net", "validate", str(f))
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_option_is_usage_error(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", str(data_dir / "nd_links.csv"), "obs.csv"])
        assert exc.value.code == 1


class TestSimulate:
    def test_infeasible_capacities_exit_solver_failure(self, capsys, data_dir, tmp_path):
        caps = tmp_path / "caps.csv"
        # links 1 and 2 are the only links leaving node 1: total cap 200 < 1200
        caps.write_text("link_id,capacity\n1,100\n2,100\n")
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "kind = FLOW_SAMPLING\n"
            f"network = {data_dir / 'nd_links.csv'}\n"
            f"demand = {data_dir / 'nd_demand.csv'}\n"
            f"capacities = {caps}\n"
            "seed = 1\nsamples = 10\n"
        )
        code, _, err = run(capsys, "simulate", str(scn), "-o", str(tmp_path / "o.csv"))
        assert code == 3
        assert "solver failure" in err

    @pytest.mark.parametrize("kind, lines", [
        ("FLOW_SAMPLING", "capacities = {data}/nd_caps_800.csv\nsamples = 10"),
        ("REGIME_STREAM", "[segment]\ncapacities = {data}/nd_caps_800.csv\ncount = 10"),
    ])
    def test_demand_without_flow_is_data_error(self, capsys, data_dir, tmp_path, kind, lines):
        demand = tmp_path / "demand.csv"
        demand.write_text("origin,destination,flow\n1,2,0\n")
        scn = tmp_path / "zero.scn"
        scn.write_text(
            f"kind = {kind}\nnetwork = {data_dir / 'nd_links.csv'}\ndemand = {demand}\n"
            "seed = 1\n" + lines.format(data=data_dir) + "\n"
        )
        code, _, err = run(capsys, "simulate", str(scn), "-o", str(tmp_path / "o.csv"))
        assert code == 2, err
        assert err.startswith(f"data error: {scn}: the demand carries no flow"), err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("kind, lines, message", [
        ("REPLAY", "mean = 3\nsamples = 4\n[segment]\ncapacities = {data}/nd_caps_500.csv\n"
                   "count = 1", "a REPLAY scenario does not take 'mean'"),
        ("FLOW_SAMPLING", "demand = {data}/nd_demand.csv\ncapacities = {data}/nd_caps_800.csv\n"
                          "samples = 4\nsteps = 5\ncorrelation = 1,2,0.5",
         "a FLOW_SAMPLING scenario does not take 'steps'"),
        ("REGIME_STREAM", "demand = {data}/nd_demand.csv\nsamples = 9\n"
                          "capacities = {data}/nd_caps_800.csv\n"
                          "[segment]\ncapacities = {data}/nd_caps_500.csv\ncount = 5",
         "a REGIME_STREAM scenario does not take 'samples'"),
        ("FLOW_SAMPLING", "demand = {data}/nd_demand.csv\ncapacities = {data}/nd_caps_800.csv",
         "a FLOW_SAMPLING scenario requires 'samples'"),
        ("REGIME_STREAM", "demand = {data}/nd_demand.csv",
         "a REGIME_STREAM scenario requires '[segment]'"),
        ("COST_HETEROGENEITY", "mean = 1", "a COST_HETEROGENEITY scenario requires 'demand'"),
        ("COST_HETEROGENEITY", "demand = {data}/nd_demand.csv\nmean.99 = 1",
         "scenario names links [99] the network lacks"),
    ])
    def test_key_the_kind_does_not_read_or_lacks(self, capsys, data_dir, tmp_path, kind, lines,
                                                 message):
        scn = tmp_path / "bad.scn"
        scn.write_text(f"kind = {kind}\nnetwork = {data_dir / 'nd_links.csv'}\nseed = 1\n"
                       + lines.format(data=data_dir) + "\n")
        code, _, err = run(capsys, "simulate", str(scn), "-o", str(tmp_path / "o.csv"))
        assert code == 2, err
        assert err == f"data error: {scn}: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_demand_pair_without_route_exits_2(self, capsys, data_dir, tmp_path):
        demand = tmp_path / "demand.csv"
        demand.write_text("origin,destination,flow\n2,1,3\n")  # nothing leaves node 2 for 1
        scn = tmp_path / "unreachable.scn"
        scn.write_text(f"kind = COST_HETEROGENEITY\nnetwork = {data_dir / 'nd_links.csv'}\n"
                       f"demand = {demand}\nseed = 1\n")
        code, _, err = run(capsys, "simulate", str(scn), "-o", str(tmp_path / "o.csv"))
        assert code == 2, err
        assert err == f"error: {scn}: no route from '2' to '1'\n"
        assert not (tmp_path / "o.csv").exists()

    def test_simulate_writes_observations(self, capsys, data_dir, tmp_path):
        out_file = tmp_path / "obs.csv"
        code, out, _ = run(
            capsys,
            "simulate",
            str(data_dir / "scenarios" / "flow_sampling_800.scn"),
            "-o",
            str(out_file),
        )
        assert code == 0
        net = load_network(data_dir / "nd_links.csv")
        assert len(load_observations(out_file, net)) == 100


class TestEstimateCosts:
    def test_scalar_prior_run(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\n"
            "a,,1,4,1;4\nb,,1,4,2;5\nc,,1,4,1;3;5\n"
        )
        trace_dir = tmp_path / "trace"
        code, out, _ = run(
            capsys,
            "estimate-costs",
            str(data_dir / "fourlink_links.csv"),
            str(obs_file),
            "--prior", "0.5",
            "-o", str(trace_dir),
        )
        assert code == 0
        assert "converged" in out
        assert (trace_dir / "prior_trace.csv").exists()
        assert (trace_dir / "agent_posteriors.csv").exists()
        assert (trace_dir / "summary.txt").exists()

    def test_prior_file_equals_scalar_prior(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\n"
            "a,,1,4,1;4\nb,,1,4,2;5\nc,,1,4,1;3;5\n"
        )
        prior_file = tmp_path / "prior.csv"
        prior_file.write_text("link_id,value\n" + "".join(f"{lid},0.5\n" for lid in range(1, 6)))
        for prior, trace in ((prior_file, "from_file"), ("0.5", "from_scalar")):
            code, _, err = run(
                capsys,
                "estimate-costs",
                str(data_dir / "fourlink_links.csv"),
                str(obs_file),
                "--prior", str(prior),
                "-o", str(tmp_path / trace),
            )
            assert code == 0, err
        for name in ("prior_trace.csv", "agent_posteriors.csv", "summary.txt"):
            written = (tmp_path / "from_file" / name).read_bytes()
            assert written == (tmp_path / "from_scalar" / name).read_bytes()

    def test_repeated_agent_id_is_data_error(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\n"
            "a,,1,4,1;4\na,,1,4,2;5\nb,,1,4,1;3;5\n"
        )
        code, _, err = run(
            capsys,
            "estimate-costs",
            str(data_dir / "fourlink_links.csv"),
            str(obs_file),
            "--prior", "1",
            "-o", str(tmp_path / "trace"),
        )
        assert code == 2, err
        assert "agent id 'a' appears more than once" in err
        assert not (tmp_path / "trace").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scalar_prior_is_data_error(self, capsys, data_dir, tmp_path, value):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("agent_id,timestamp,origin,destination,link_seq\na,,1,4,1;4\n")
        code, _, err = run(
            capsys,
            "estimate-costs",
            str(data_dir / "fourlink_links.csv"),
            str(obs_file),
            "--prior", value,
            "-o", str(tmp_path / "trace"),
        )
        assert code == 2, err
        assert "not finite" in err

    def test_nan_tol_is_data_error(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("agent_id,timestamp,origin,destination,link_seq\na,,1,4,1;4\n")
        code, _, err = run(
            capsys,
            "estimate-costs",
            str(data_dir / "fourlink_links.csv"),
            str(obs_file),
            "--prior", "0.5",
            "--tol", "nan",
            "-o", str(tmp_path / "trace"),
        )
        assert code == 2, err
        assert "tol must be positive" in err

    @pytest.mark.parametrize(
        "rows, link",
        [("1,3.0\n", "link 1"), ("99,1\n", "link 99")],
        ids=["duplicate", "unknown"],
    )
    def test_bad_row_in_prior_file_is_data_error(self, capsys, data_dir, tmp_path, rows, link):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("agent_id,timestamp,origin,destination,link_seq\na,,1,4,1;4\n")
        prior_file = tmp_path / "prior.csv"
        prior_file.write_text("link_id,value\n1,0.5\n2,0.5\n3,0.5\n4,0.5\n5,0.5\n" + rows)
        code, _, err = run(
            capsys,
            "estimate-costs",
            str(data_dir / "fourlink_links.csv"),
            str(obs_file),
            "--prior", str(prior_file),
            "-o", str(tmp_path / "trace"),
        )
        assert code == 2, err
        assert f"prior.csv:7: {link} " in err
        assert not (tmp_path / "trace").exists()


class TestRecoverDuals:
    def test_published_fixed_point(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            str(data_dir / "scenarios" / "flow_sampling_800.scn"),
            "-o", str(obs_file),
        )
        assert code == 0
        trace_dir = tmp_path / "trace"
        code, out, _ = run(
            capsys,
            "recover-duals",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "-o", str(trace_dir),
        )
        assert code == 0
        rows = read_csv(trace_dir / "prior_trace.csv")
        last_iteration = max(int(r["iteration"]) for r in rows)
        final = {
            int(r["link_id"]): float(r["prior_value"])
            for r in rows
            if int(r["iteration"]) == last_iteration
        }
        assert f"{final[1]:.6f}" == "7.000000"
        assert f"{final[7]:.6f}" == "5.000000"

    def test_all_links_priced_converges_nonnegative(self, capsys, data_dir, tmp_path):
        """One posterior lands a few 1e-9 below zero here; it must not abort the run."""

        obs_file = tmp_path / "obs.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            str(data_dir / "scenarios" / "flow_sampling_800.scn"),
            "-o", str(obs_file),
        )
        assert code == 0
        trace_dir = tmp_path / "trace"
        code, out, err = run(
            capsys,
            "recover-duals",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "all",
            "-o", str(trace_dir),
        )
        assert code == 0, err
        assert "converged: true" in (trace_dir / "summary.txt").read_text()
        priors = read_csv(trace_dir / "prior_trace.csv")
        posteriors = read_csv(trace_dir / "agent_posteriors.csv")
        assert {int(r["link_id"]) for r in priors} == set(range(1, 20))
        assert all(float(r["prior_value"]) >= 0.0 for r in priors)
        assert all(float(r["value"]) >= 0.0 for r in posteriors)

    def test_bad_priced_ids(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,,1,2,2;18;11\n"
        )
        for priced, message in (
            ("1,99", "unknown link id 99"),
            ("1,x", "--priced expects integer link ids, got '1,x'"),
            (",", "--priced received no link ids"),
        ):
            code, _, err = run(
                capsys,
                "recover-duals",
                str(data_dir / "nd_links.csv"),
                str(obs_file),
                "--priced", priced,
                "-o", str(tmp_path / "t"),
            )
            assert code == 2
            assert message in err

    def test_inconsistent_observation_is_skipped(self, capsys, data_dir, tmp_path):
        # 1;5;7;10;15 costs 33 and can only gain from prices on 1 and 7, while
        # the unpriced 2;18;11 costs 32: no pricing makes it a shortest route
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,,1,2,2;18;11\nb,,1,2,1;5;7;10;15\n"
        )
        code, out, err = run(
            capsys,
            "recover-duals",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "-o", str(tmp_path / "t"),
        )
        assert code == 0, err
        assert out.startswith("converged")
        assert err == "skipped 1 inconsistent observations\n"

    def test_nan_in_prior_file_is_data_error(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,,1,2,2;18;11\n"
        )
        prior_file = tmp_path / "prior.csv"
        prior_file.write_text("link_id,value\n1,0.5\n7,nan\n")
        code, _, err = run(
            capsys,
            "recover-duals",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--prior", str(prior_file),
            "-o", str(tmp_path / "t"),
        )
        assert code == 2, err
        assert "not finite" in err

    @pytest.mark.parametrize(
        "rows, link",
        [("1,3.0\n", "link 1"), ("2,1\n", "link 2"), ("99,1\n", "link 99")],
        ids=["duplicate", "unpriced", "unknown"],
    )
    def test_bad_row_in_prior_file_is_data_error(self, capsys, data_dir, tmp_path, rows, link):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,,1,2,2;18;11\n"
        )
        prior_file = tmp_path / "prior.csv"
        prior_file.write_text("link_id,value\n1,0.5\n7,0.5\n" + rows)
        code, _, err = run(
            capsys,
            "recover-duals",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--prior", str(prior_file),
            "-o", str(tmp_path / "t"),
        )
        assert code == 2, err
        assert f"prior.csv:4: {link} " in err
        assert not (tmp_path / "t").exists()


class TestMonitor:
    def test_replay_equals_fold_and_state_resumes(self, capsys, data_dir, tmp_path):
        stream_file = tmp_path / "stream.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            str(data_dir / "scenarios" / "regime_stream.scn"),
            "-o", str(stream_file),
        )
        assert code == 0
        net = load_network(data_dir / "nd_links.csv")
        observations = load_observations(stream_file, net)

        state_file = tmp_path / "state.json"
        log_file = tmp_path / "log.csv"
        code, _, _ = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(stream_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(log_file),
        )
        assert code == 0

        priced = CapacitySpec.priced_only([1, 7])
        folded = OnlineState({1: 0.0, 7: 0.0})
        for ob in observations:
            folded = online_update(folded, ob, net, net.base_costs(), priced)
        saved = load_state(state_file)
        assert saved.prices == folded.prices
        assert saved.update_count == folded.update_count

        log_rows = read_csv(log_file)
        assert len(log_rows) == 300 * 2  # one row per priced link per update
        assert {r["update_index"] for r in log_rows} == {str(i) for i in range(1, 301)}

        # resuming on the same stream folds it again and continues counting
        second_log = tmp_path / "log2.csv"
        code, _, _ = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(stream_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(second_log),
        )
        assert code == 0
        assert load_state(state_file).update_count == 600
        second_rows = read_csv(second_log)
        assert second_rows[0]["update_index"] == "301"
        assert {r["update_index"] for r in second_rows} == {str(i) for i in range(301, 601)}

    def test_incomplete_state_file_is_data_error(self, tmp_path, data_dir, capsys):
        state_file = tmp_path / "state.json"
        state_file.write_text('{"prices": {"1": 7.0}, "update_count": 3}\n')
        obs_file = tmp_path / "one.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,1,1,2,2;18;11\n"
        )
        code, _, err = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(tmp_path / "log.csv"),
        )
        assert code == 2
        assert err == f"data error: {state_file}: online price has no entry for link 7\n"

    def test_state_file_round_trips_through_cli(self, tmp_path, data_dir, capsys):
        state_file = tmp_path / "state.json"
        obs_file = tmp_path / "one.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,1,1,2,2;18;11\n"
        )
        code, _, _ = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(tmp_path / "log.csv"),
        )
        assert code == 0
        payload = json.loads(state_file.read_text())
        assert set(payload["prices"]) == {"1", "7"}
        assert payload["update_count"] == 1

    def test_nan_price_in_state_file_is_data_error(self, tmp_path, data_dir, capsys):
        state_file = tmp_path / "state.json"
        state_file.write_text('{"prices": {"1": NaN, "7": 0.0}, "update_count": 3}\n')
        obs_file = tmp_path / "one.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,1,1,2,2;18;11\n"
        )
        code, _, err = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(tmp_path / "log.csv"),
        )
        assert code == 2, err
        assert "not finite" in err

    @pytest.mark.parametrize(
        "prices, message",
        [
            ('"1": 2.0, "7": 0.0, "1": 3.0', "repeated key '1'"),
            ('"1": 2.0, "7": 0.0, "01": 3.0', "price key '01' is not written as link id 1"),
        ],
        ids=["repeated", "unwritten"],
    )
    def test_ambiguous_price_key_in_state_file_is_data_error(
        self, tmp_path, data_dir, capsys, prices, message
    ):
        """Two entries for one link are refused, not resolved by keeping the last."""

        state_file = tmp_path / "state.json"
        state_file.write_text(f'{{"prices": {{{prices}}}, "update_count": 3}}\n')
        obs_file = tmp_path / "one.csv"
        obs_file.write_text(
            "agent_id,timestamp,origin,destination,link_seq\na,1,1,2,2;18;11\n"
        )
        code, _, err = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(tmp_path / "log.csv"),
        )
        assert code == 2, err
        assert err == f"data error: cannot read online state from {state_file}: {message}\n"

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_non_finite_timestamp_is_data_error(self, tmp_path, data_dir, capsys, stamp):
        """A stream with a non-finite timestamp is refused before any state is written."""

        state_file = tmp_path / "state.json"
        obs_file = tmp_path / "one.csv"
        obs_file.write_text(
            f"agent_id,timestamp,origin,destination,link_seq\na,{stamp},1,2,2;18;11\n"
        )
        code, _, err = run(
            capsys,
            "monitor",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,7",
            "--state", str(state_file),
            "-o", str(tmp_path / "log.csv"),
        )
        assert code == 2, err
        assert err.startswith("data error:") and "one.csv:2: " in err and "timestamp" in err
        assert not state_file.exists()


class TestUnreadableInputs:
    """A file that cannot be read as UTF-8 text is a data error, never a traceback."""

    OBS = "agent_id,timestamp,origin,destination,link_seq\na,,1,2,2;18;11\n"

    @staticmethod
    def assert_data_error(code, err):
        assert code == 2, err
        assert err.startswith("data error:")

    def batch(self, capsys, data_dir, tmp_path, command, prior):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(self.OBS)
        priced = ["--priced", "1,7"] if command == "recover-duals" else []
        return run(
            capsys, command, str(data_dir / "nd_links.csv"), str(obs_file), *priced,
            "--prior", str(prior), "-o", str(tmp_path / "trace"),
        )

    @pytest.mark.parametrize("command", ["recover-duals", "estimate-costs"])
    def test_missing_prior_file(self, capsys, data_dir, tmp_path, command):
        code, _, err = self.batch(capsys, data_dir, tmp_path, command, tmp_path / "missing.csv")
        self.assert_data_error(code, err)
        assert "missing.csv" in err

    @pytest.mark.parametrize("command", ["recover-duals", "estimate-costs"])
    def test_prior_file_not_utf8(self, capsys, data_dir, tmp_path, command):
        prior = tmp_path / "prior.csv"
        prior.write_bytes(b"link_id,value\n1,0.5\n7,\xff\n")
        code, _, err = self.batch(capsys, data_dir, tmp_path, command, prior)
        self.assert_data_error(code, err)
        assert "prior.csv" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["recover-duals", "estimate-costs"])
    def test_bad_value_in_prior_file_names_its_line(self, capsys, data_dir, tmp_path,
                                                    command, value):
        prior = tmp_path / "prior.csv"
        prior.write_text(f"link_id,value\n1,0.5\n7,{value}\n")
        code, _, err = self.batch(capsys, data_dir, tmp_path, command, prior)
        self.assert_data_error(code, err)
        assert "prior.csv:3: " in err and "not finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_scalar_prior_names_the_option(self, capsys, data_dir, tmp_path, value):
        code, _, err = self.batch(capsys, data_dir, tmp_path, "estimate-costs", value)
        self.assert_data_error(code, err)
        assert f"--prior is negative or not finite: {value}" in err

    def test_prior_file_without_header(self, capsys, data_dir, tmp_path):
        prior = tmp_path / "prior.csv"
        prior.write_text("1,0.5\n7,0.5\n")
        code, _, err = self.batch(capsys, data_dir, tmp_path, "recover-duals", prior)
        self.assert_data_error(code, err)
        assert "expected header 'link_id,value'" in err

    def test_directory_as_links_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "net", "validate", str(tmp_path))
        self.assert_data_error(code, err)

    def test_links_file_not_utf8(self, capsys, tmp_path):
        links = tmp_path / "links.csv"
        links.write_bytes(b"link_id,start_node,end_node,cost\n1,caf\xe9,b,3\n")
        code, _, err = run(capsys, "net", "validate", str(links))
        self.assert_data_error(code, err)
        assert "links.csv" in err

    def test_directory_as_scenario_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", str(tmp_path), "-o", str(tmp_path / "o.csv"))
        self.assert_data_error(code, err)

    @pytest.mark.parametrize("key, lines", [
        ("samples", "samples = x"),
        ("steps", "steps = 3.5"),
        ("step_minutes", "step_minutes = y"),
        ("mean", "mean = z"),
        ("sd", "sd = w"),
        ("mean", "mean = nan"),
        ("mean.1", "mean.1 = inf"),
        ("sd", "sd = nan"),
        ("sd.3", "sd.3 = inf"),
        ("steps", "steps = -2"),
        ("step_minutes", "step_minutes = -5"),
        ("step_minutes", "step_minutes = nan"),
        ("count", "[segment]\ncapacities = {data}/nd_caps_500.csv\ncount = many"),
    ])
    def test_malformed_scenario_value(self, capsys, data_dir, tmp_path, key, lines):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "kind = FLOW_SAMPLING\nnetwork = {data}/nd_links.csv\n"
            "demand = {data}/nd_demand.csv\ncapacities = {data}/nd_caps_800.csv\n"
            "seed = 1\n".format(data=data_dir) + lines.format(data=data_dir) + "\n"
        )
        code, _, err = run(capsys, "simulate", str(scn), "-o", str(tmp_path / "o.csv"))
        self.assert_data_error(code, err)
        assert f"{scn}: bad value for {key!r}" in err
        assert not (tmp_path / "o.csv").exists()


class TestUnwritableOutputs:
    """An output that cannot be written is a data error naming it, never a traceback."""

    OBS = "agent_id,timestamp,origin,destination,link_seq\na,1,1,2,2;18;11\n"

    @staticmethod
    def assert_cannot_write(code, err, target):
        assert code == 2, err
        assert err.startswith(f"data error: cannot write {target}: "), err
        assert ".tmp" not in err

    def monitor(self, capsys, data_dir, tmp_path, state, log):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(self.OBS)
        return run(
            capsys, "monitor", str(data_dir / "nd_links.csv"), str(obs_file),
            "--priced", "1,7", "--state", str(state), "-o", str(log),
        )

    def test_simulate_into_missing_directory(self, capsys, data_dir, tmp_path):
        target = tmp_path / "missing_dir" / "q.csv"
        code, _, err = run(
            capsys, "simulate", str(data_dir / "scenarios" / "flow_sampling_800.scn"),
            "-o", str(target),
        )
        self.assert_cannot_write(code, err, target)

    def test_monitor_state_in_missing_directory(self, capsys, data_dir, tmp_path):
        target = tmp_path / "missing_dir" / "s.json"
        code, _, err = self.monitor(capsys, data_dir, tmp_path, target, tmp_path / "log.csv")
        self.assert_cannot_write(code, err, target)

    def test_monitor_state_under_a_file(self, capsys, data_dir, tmp_path):
        (tmp_path / "plain").write_text("")
        target = tmp_path / "plain" / "s.json"
        code, _, err = self.monitor(capsys, data_dir, tmp_path, target, tmp_path / "log.csv")
        self.assert_cannot_write(code, err, target)

    def test_monitor_unwritable_log_leaves_the_state_unchanged(self, capsys, data_dir, tmp_path):
        state = tmp_path / "s.json"
        target = tmp_path / "missing_dir" / "log.csv"
        code, _, err = self.monitor(capsys, data_dir, tmp_path, state, target)
        self.assert_cannot_write(code, err, target)
        assert not state.exists()

    def test_recover_duals_into_an_existing_file(self, capsys, data_dir, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(self.OBS)
        target = tmp_path / "taken"
        target.write_text("")
        code, _, err = run(
            capsys, "recover-duals", str(data_dir / "nd_links.csv"), str(obs_file),
            "--priced", "1,7", "-o", str(target),
        )
        self.assert_cannot_write(code, err, target)
        assert target.read_text() == ""
