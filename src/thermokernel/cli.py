"""Command-line entry point.

``thermokernel run <file.json> [--out DIR] [--seed N]`` executes a scenario
and writes each ``save`` artifact under DIR (by default the scenario's own
directory), so a ``save`` must be a relative path without ``..`` that does
not name the scenario file: exit 0 when every assertion passes, 1 when one
fails (a NaN never passes), 2 on a read, write or parse error, 3 on a
validation or engine error.
``thermokernel verify <suite> [--seed N]`` runs one of the randomized
invariant suites (or ``all``): exit 0 when every check passes, 1 when one
fails, 3 with one ``ENGINE ERROR: <type>: <message>`` line when the engine
rejects a state or value.  The THERMOKERNEL_TOL environment variable is one
number that multiplies every tolerance tier; when it is malformed, either
command exits 2 with one ``bad THERMOKERNEL_TOL: <reason>`` line before it runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import tolerances
from .errors import ThermoError
from .scenario import run_scenario
from .suites import SUITES, run_suites


@functools.cache  # built once per process, however many times ``main`` runs
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thermokernel")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None, help="artifact output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override scenario seed")

    verify_p = sub.add_parser("verify", help="run an invariant suite")
    verify_p.add_argument("suite", help=f"one of: {', '.join(SUITES)}, all")
    verify_p.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tolerances()
    except ValueError as exc:
        print(f"bad THERMOKERNEL_TOL: {exc}")
        return 2
    if args.command == "run":
        result = run_scenario(args.scenario, out_dir=args.out, seed=args.seed)
        for line in result.messages:
            print(line)
        for path in result.artifacts:
            print(f"wrote {path}")
        return result.exit_code
    if args.suite != "all" and args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}, all")
    try:
        reports = run_suites(args.suite, seed=args.seed)
    except (ThermoError, ValueError, ArithmeticError) as exc:
        print(f"ENGINE ERROR: {type(exc).__name__}: {exc}")
        return 3
    ok = True
    for report in reports:
        for line in report.lines():
            print(line)
        ok = ok and report.passed
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
