"""Command-line entry point: uqfv run --config <path> [--output <dir>]."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .runner import run, run_batch


def _print_report(config, report):
    print(f"method: {config.method.name}")
    print(f"steps: {report.stats.steps}")
    print(f"wall_s: {report.stats.wall_s:.3f}")
    if report.errors:
        for key, value in report.errors.items():
            print(f"{key}: {value:.6g}")
    for name, path in report.output_files.items():
        print(f"{name}: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uqfv",
        description="Intrusive UQ solvers for the uncertain compressible Euler equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute one configured experiment")
    run_parser.add_argument("--config", required=True, help="path to the run configuration")
    run_parser.add_argument("--output", default=None, help="output directory override")
    batch_parser = sub.add_parser("batch", help="execute a list of configurations")
    batch_parser.add_argument(
        "--configs", required=True, nargs="+", help="configuration paths, run in order"
    )
    batch_parser.add_argument("--output", default="out", help="batch output directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = parse_config(Path(args.config))
            report = run(config, output_dir=args.output)
            _print_report(config, report)
        else:
            reports = run_batch(args.configs, args.output)
            for report in reports:
                _print_report(report.config, report)
                print()
            print(f"batch: {len(reports)} run(s) under {args.output}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
