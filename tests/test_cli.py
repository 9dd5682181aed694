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
        code, _, err = run(
            capsys,
            "recover-duals",
            str(data_dir / "nd_links.csv"),
            str(obs_file),
            "--priced", "1,99",
            "-o", str(tmp_path / "t"),
        )
        assert code == 2

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
        assert "lacks prices" in err

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
