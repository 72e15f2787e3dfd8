"""Command line front end: kg-lab run | scenarios | validate.

Exit codes: 0 success, 2 invalid configuration (including magnitudes that
overflow during the run and arrays too large for the memory the process may
use), 3 bandwidth or support violation, 4 I/O failure.
Failures, usage errors included, emit a one-line JSON error record on
stderr so callers can parse the reason without scraping text.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .errors import BandwidthError, ConfigError
from .scenarios import (
    SCENARIOS,
    RunResult,
    SUMMARY_COLUMNS,
    _compute,
    run_scenario,
    validate_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BANDWIDTH = 3
EXIT_IO = 4


def _error_record(exc: Exception) -> None:
    # numpy raises its own subclass of MemoryError; the record names the builtin.
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    record = {"error": name, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _print_run(result: RunResult) -> None:
    print(f"scenario: {result.scenario}")
    for name, series in sorted(result.series.items()):
        label = "" if name == "main" else f" [{name}]"
        print("  " + " ".join(SUMMARY_COLUMNS) + label)
        for row in series.summary.tolist():
            print("  " + " ".join(format(v, ".6g") for v in row))
    for path in result.files:
        print(f"wrote {path}")


def _read_config(path: str) -> str:
    """The text of a config file; ConfigError unless its path holds no NUL
    byte, which no file name can, and its text is UTF-8."""
    if "\0" in path:
        raise ConfigError("kg-lab: config: a path cannot hold a NUL byte")
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: byte {exc.start}: {exc.reason}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.out or "\0" in args.out:
        raise ConfigError("kg-lab run: --out: must be a non-empty path with no NUL byte")
    config = validate_config(_read_config(args.config))
    result = run_scenario(config, Path(args.out), args.format)
    if not args.quiet:
        _print_run(result)
    return EXIT_OK


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    for name, scenario in SCENARIOS.items():
        print(f"{name}: {scenario.blurb}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    text = _read_config(args.config)
    config = validate_config(text)
    _compute(config)
    print(f"OK: {config.scenario} "
          f"(n={config.grid.n}, length={config.grid.length:g}, "
          f"{len(config.times)} sample times)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that main
    reports them like any invalid configuration; its subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kg-lab argument parser, built once per process and shared by every
    main call: parsing leaves it unchanged, and callers must not modify it."""
    parser = _Parser(
        prog="kg-lab",
        description="Spectral wave-packet laboratory: run shipped scenarios from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--out", default="kg-lab-out",
                       help="output directory (default: kg-lab-out)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="data file format (default: csv)")
    run_p.add_argument("--quiet", action="store_true", help="suppress the summary table")
    run_p.set_defaults(func=_cmd_run)

    sc_p = sub.add_parser("scenarios", help="list the shipped scenario catalog")
    sc_p.set_defaults(func=_cmd_scenarios)

    val_p = sub.add_parser("validate",
                           help="check a config and run its physics without writing files")
    val_p.add_argument("config", help="path to a JSON scenario config")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # A FloatingPointError means the config's magnitudes overflow the physics,
    # a MemoryError that its arrays do not fit in memory.
    except (ConfigError, FloatingPointError, MemoryError) as exc:
        _error_record(exc)
        return EXIT_CONFIG
    except BandwidthError as exc:
        _error_record(exc)
        return EXIT_BANDWIDTH
    except OSError as exc:
        _error_record(exc)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
