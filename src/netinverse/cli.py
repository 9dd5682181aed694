"""Command-line interface.

Subcommands::

    net validate <links_file>
    simulate <scenario_file> -o <obs_file>
    estimate-costs <links> <obs> --prior <value|file> [--tol T] [--max-iter N]
                   -o <trace_dir>
    recover-duals <links> <obs> --priced <ids|all> [--prior <file>]
                  [--tol T] [--max-iter N] -o <trace_dir>
    monitor <links> <obs_stream> --priced <ids|all> --state <state_file>
            -o <log_file>

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path as FilePath

from .errors import DataError, NetinverseError, NoUsableObservations, SolverError
from .learner import (
    OnlineState,
    estimate_costs,
    load_state,
    recover_prices,
    run_monitor,
    save_state,
    write_online_log,
    write_trace,
)
from .network import (
    CapacitySpec,
    Network,
    _check_values,
    load_network,
    load_observations,
    load_prices,
    write_observations,
)
from .scenarios import generate_observations, load_scenario

USAGE_ERROR = 1
DATA_ERROR = 2
SOLVER_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netinverse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("net", help="network file utilities")
    net_sub = p_net.add_subparsers(dest="net_command", required=True)
    p_validate = net_sub.add_parser("validate", help="load a links file and report")
    p_validate.add_argument("links_file")

    p_sim = sub.add_parser("simulate", help="run the generator matching a scenario file")
    p_sim.add_argument("scenario_file")
    p_sim.add_argument("-o", "--output", required=True, help="observation file to write")

    p_est = sub.add_parser("estimate-costs", help="batch link-cost estimation")
    p_est.add_argument("links_file")
    p_est.add_argument("obs_file")
    p_est.add_argument("--prior", required=True, help="scalar value or link_id,value file")
    p_est.add_argument("--tol", type=float, default=1e-3)
    p_est.add_argument("--max-iter", type=int, default=1000)
    p_est.add_argument("-o", "--output", required=True, help="trace directory")

    p_rec = sub.add_parser("recover-duals", help="batch dual-price recovery")
    p_rec.add_argument("links_file")
    p_rec.add_argument("obs_file")
    p_rec.add_argument("--priced", required=True, help="comma-separated link ids, or 'all'")
    p_rec.add_argument("--prior", default=None, help="link_id,value file (default zeros)")
    # tight default so the summary line's six decimals land on the fixed point
    p_rec.add_argument("--tol", type=float, default=1e-7)
    p_rec.add_argument("--max-iter", type=int, default=1000)
    p_rec.add_argument("-o", "--output", required=True, help="trace directory")

    p_mon = sub.add_parser("monitor", help="online replay of an observation stream")
    p_mon.add_argument("links_file")
    p_mon.add_argument("obs_file")
    p_mon.add_argument("--priced", required=True, help="comma-separated link ids, or 'all'")
    p_mon.add_argument("--state", required=True, help="state file, resumed if present")
    p_mon.add_argument("-o", "--output", required=True, help="log file to write")
    return parser


def _parse_priced(value: str, net: Network) -> CapacitySpec:
    if value.strip().lower() == "all":
        return CapacitySpec.priced_only(l.id for l in net.links)
    try:
        ids = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise DataError(f"--priced expects integer link ids, got {value!r}") from None
    if not ids:
        raise DataError("--priced received no link ids")
    spec = CapacitySpec.priced_only(ids)
    spec.validate_against(net)
    return spec


def _cmd_net_validate(args: argparse.Namespace) -> int:
    net = load_network(args.links_file)
    print(f"ok: {len(net.nodes)} nodes, {len(net.links)} links")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_scenario(args.scenario_file)  # its errors name the file already
    try:
        observations, header = generate_observations(spec)
    except NetinverseError as exc:  # the same error, naming the file
        raise type(exc)(f"{args.scenario_file}: {exc}") from None
    write_observations(observations, args.output, header_comments=header)
    print(f"wrote {len(observations)} observations to {args.output}")
    return 0


def _cmd_estimate_costs(args: argparse.Namespace) -> int:
    net = load_network(args.links_file)
    observations = load_observations(args.obs_file, net)
    link_ids = tuple(l.id for l in net.links)
    try:
        value = float(args.prior)
    except ValueError:
        prior = load_prices(args.prior, link_ids)
    else:
        if not math.isfinite(value) or value < 0:
            raise DataError(f"--prior is negative or not finite: {args.prior}")
        prior = dict.fromkeys(link_ids, value)
    trace = estimate_costs(observations, net, prior, tol=args.tol, max_iter=args.max_iter)
    write_trace(trace, args.output)
    status = "converged" if trace.converged else "max-iter reached"
    print(f"{status} after {trace.iterations} iterations, final gap {trace.final_gap:g}")
    return 0


def _cmd_recover_duals(args: argparse.Namespace) -> int:
    net = load_network(args.links_file)
    observations = load_observations(args.obs_file, net)
    priced = _parse_priced(args.priced, net)
    prior = None if args.prior is None else load_prices(args.prior, priced.priced_links())
    trace = recover_prices(
        observations,
        net,
        net.base_costs(),
        priced,
        initial_prior=prior,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    write_trace(trace, args.output)
    status = "converged" if trace.converged else "max-iter reached"
    final = trace.final_prior()
    summary = ", ".join(f"{lid}={final[lid]:.6f}" for lid in sorted(final))
    print(f"{status} after {trace.iterations} iterations: {summary}")
    if trace.skipped_agents:
        print(f"skipped {len(trace.skipped_agents)} inconsistent observations", file=sys.stderr)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    net = load_network(args.links_file)
    observations = load_observations(args.obs_file, net)
    priced = _parse_priced(args.priced, net)
    state_path = FilePath(args.state)
    if state_path.exists():
        state = load_state(state_path)
        _check_values(f"{state_path}: online price", state.prices, priced.priced_links())
    else:
        state = OnlineState({lid: 0.0 for lid in priced.priced_links()})
    state = run_monitor(state, observations, net, net.base_costs(), priced)
    write_online_log(state, args.output)  # first: a failed run leaves the state unchanged
    save_state(state, state_path)
    skipped = sum(1 for entry in state.log if entry.skipped)
    print(f"processed {len(observations)} observations ({skipped} skipped), "
          f"state at {args.state}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "net": _cmd_net_validate,
        "simulate": _cmd_simulate,
        "estimate-costs": _cmd_estimate_costs,
        "recover-duals": _cmd_recover_duals,
        "monitor": _cmd_monitor,
    }
    try:
        return handlers[args.command](args)
    except (DataError, NoUsableObservations) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except NetinverseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
