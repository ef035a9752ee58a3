"""Command-line surface: experiment subcommands and verification.

Exit codes: 0 on success, 1 on verification or runtime failure, 2 on
usage errors (argparse's default).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .errors import InvalidParameterError, OracleError
from .harness import ALGORITHMS, OPTIONAL_FIELDS, ExperimentConfig, run_experiment, write_report
from .verify import ALL_CHECKS, run_checks


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="universe size")
    parser.add_argument("--trials", type=int, default=100, help="independent runs")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--oracle", default="builtin",
                        help="'builtin' or 'cmd:<command line>' for an external oracle")
    parser.add_argument("--fixed-instance", action="store_true",
                        help="use one instance for every trial instead of fresh ones")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for builtin-oracle trials")


# the flag of each config field in harness.ALGORITHMS: its type and help
_FIELD_FLAGS = {
    "r": (float, "target rank threshold"),
    "k": (int, "target rank"),
    "delta": (float, "relative rank accuracy in (0,1)"),
    "epsilon": (float, "failure probability in (0,1)"),
    "x_rank": (int, "pin x to the element of this true rank (builtin oracle)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtorder",
        description="Randomized order statistics over a group-test oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (blurb, takes) in ALGORITHMS.items():
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        for field in takes:
            kind, text = _FIELD_FLAGS[field]
            p.add_argument("--" + field.replace("_", "-"), type=kind, help=text,
                           required=field not in OPTIONAL_FIELDS)

    p = sub.add_parser("verify", help="run the statistical verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", action="append", default=None, metavar="CHECK",
                   help="run only this check (repeatable); known checks: "
                        + ", ".join(ALL_CHECKS))
    p.add_argument("--list", action="store_true", help="list available checks")

    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    names = {field.name for field in fields(ExperimentConfig)}
    return ExperimentConfig(args.command, **{k: v for k, v in vars(args).items() if k in names})


def _run_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.list:
        for name in ALL_CHECKS:
            print(name)
        return 0
    try:
        results = run_checks(args.seed, args.only)
    except KeyError as exc:
        parser.error(str(exc))
    total = failures = 0
    for result in results:
        print(result, flush=True)
        total += 1
        failures += not result.passed
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


def _names_stdout(path: str) -> bool:
    """Whether ``path`` is the file standard output writes to.  A report
    written there through a file of its own starts at offset 0, and the
    summary printed after it would overwrite its first bytes."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError, AttributeError):
        return False  # a path that does not exist yet, or no stdout descriptor


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _run_verify(args, parser)
    config = _experiment_config(args)
    try:
        reports, summary = run_experiment(config)
        path = None if args.out is not None and _names_stdout(args.out) else args.out
        write_report(config, reports, summary, fmt=args.format, path=path)
    except InvalidParameterError as exc:
        parser.error(str(exc))
    except (OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
