"""Command-line entry point.

Subcommands::

    compapprox run <config.json|fixture-name> [--output-dir DIR]
    compapprox fixtures [--paths]
    compapprox verify <summary.json>

Exit codes: 0 pass, 1 assertion failure, 2 nonconvergence, 3 input error.
The output directory defaults to the current directory and can be overridden
by --output-dir or the COMPAPPROX_OUTPUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import ConfigError, NonconvergenceError
from .config import load_config
from .fixtures import FIXTURE_ORDER, fixture_config, fixture_path, list_fixtures
from .runner import run_experiment, verify_summary


def _cmd_run(args) -> int:
    try:
        if os.path.exists(args.config):
            cfg = load_config(args.config)
        elif args.config in FIXTURE_ORDER:
            cfg = fixture_config(args.config)
        else:
            print(f"run: {args.config!r} is neither a file nor a bundled fixture name",
                  file=sys.stderr)
            return 3
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 3
    try:
        status = run_experiment(cfg, output_dir=args.output_dir)
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 3
    label = {0: "pass", 1: "ASSERTION FAILURE", 2: "NONCONVERGENCE"}[status]
    print(f"{cfg.name}: {label}")
    return status


def _cmd_fixtures(args) -> int:
    for name, description in list_fixtures():
        if args.paths:
            print(f"{name}\t{fixture_path(name)}")
        else:
            print(f"{name:26s} {description}")
    return 0


def _cmd_verify(args) -> int:
    return verify_summary(args.summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compapprox",
        description="composite-optimization approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment configuration")
    p_run.add_argument("config", help="path to a config JSON or a bundled fixture name")
    p_run.add_argument("--output-dir", default=None,
                       help="artifact directory (default: $COMPAPPROX_OUTPUT_DIR or cwd)")
    p_run.set_defaults(func=_cmd_run)

    p_fix = sub.add_parser("fixtures", help="list the bundled suites")
    p_fix.add_argument("--paths", action="store_true",
                       help="print installed fixture file paths")
    p_fix.set_defaults(func=_cmd_fixtures)

    p_ver = sub.add_parser("verify", help="re-check a summary against its artifacts")
    p_ver.add_argument("summary", help="path to a <prefix>_summary.json file")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
