"""Command-line front end.

Subcommands: scattering, tolerated-error, error-vs-k, inbeam, latc-run.
Each loads a scenario config (a path, or the builtin names ``default`` and
``five-ue``), runs the experiment, and writes ``<subcommand>.csv`` plus a
``manifest`` into the output directory. Exit codes: 0 success, 1 config or
usage error, 2 runtime error or an output directory that cannot be made or
written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, SimulationError
from .experiments import (
    exp_error_vs_k,
    exp_inbeam,
    exp_latc_run,
    exp_scattering,
    exp_tolerated_error,
    write_csv,
    write_manifest,
)
from .scenario import load_scenario

_SUBCOMMANDS = ("scattering", "tolerated-error", "error-vs-k", "inbeam", "latc-run")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="latcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default="default", help="config path or builtin name")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scenario, config_text = load_scenario(args.config)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "scattering":
            header, rows, hpbw_header, hpbw_rows = exp_scattering(scenario)
            write_csv(out_dir / "scattering.csv", header, rows)
            write_csv(out_dir / "hpbw.csv", hpbw_header, hpbw_rows)
        elif args.command == "tolerated-error":
            header, rows = exp_tolerated_error(scenario)
            write_csv(out_dir / "tolerated-error.csv", header, rows)
        elif args.command == "error-vs-k":
            header, rows = exp_error_vs_k(scenario)
            write_csv(out_dir / "error-vs-k.csv", header, rows)
        elif args.command == "inbeam":
            header, rows = exp_inbeam(scenario)
            write_csv(out_dir / "inbeam.csv", header, rows)
        elif args.command == "latc-run":
            header, rows = exp_latc_run(scenario)
            write_csv(out_dir / "latc-run.csv", header, rows)
        write_manifest(out_dir, config_text, scenario.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # its message names the path
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
