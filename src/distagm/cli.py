"""Command-line entry point: run, compare, rate-check, energy-check."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .objectives import SolverError


def _add_config_args(sub):
    sub.add_argument("config", help="YAML config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=None,
                     help="reseed the run: replaces every seed the config "
                          "sets or defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distagm",
        description="Distributed accelerated gradient flow simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_config_args(subs.add_parser(
        "run", help="execute configured algorithms and write traces"))
    _add_config_args(subs.add_parser(
        "compare", help="run >= 2 algorithms and emit a comparison table"))
    _add_config_args(subs.add_parser(
        "energy-check", help="integrate the flow and report energy drift"))

    # an option left out takes the default of the function it is passed to
    rate = subs.add_parser("rate-check", argument_default=argparse.SUPPRESS,
                           help="fit a convergence slope from a trace CSV")
    rate.add_argument("trace_path", metavar="trace",
                      help="trace CSV produced by run/compare")
    rate.add_argument("--beta", type=float, required=True)
    rate.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    rate.add_argument("--tail-fraction", type=float)
    rate.add_argument("--tolerance", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rate-check":
        options = vars(args)
        del options["command"]
        try:
            return harness.cmd_rate_check(**options)
        except (ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return harness.EXIT_CONFIG
    try:
        cfg = harness.load_config(args.config)
        command = {"run": harness.cmd_run, "compare": harness.cmd_compare,
                   "energy-check": harness.cmd_energy_check}[args.command]
        return command(cfg, args.out, args.seed)
    except harness.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return harness.EXIT_CONFIG
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return harness.EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
