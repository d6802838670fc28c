"""Command-line surface.

    tssqp run --problem NAME | --suite
              --strategy linesearch|fixed|adaptive|ablation   (repeatable)
              [--noise F ...] [--seeds N] [--iters N]
              [--beta F] [--nu F] [--theta F] [--xi F] [--rho F] [--q0 F] [--b0 F]
              [--base-seed N] [--out PATH] [--format csv|json] [--audit]

Exit codes: 0 success, 2 configuration or output error, 3 all runs failed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import TssqpError
from .harness import (
    DEFAULT_NOISE_LEVELS,
    ExperimentPlan,
    audits_to_json,
    run_experiment,
    to_csv,
    to_json,
)
from .problems import builtin_names
from .solver import STRATEGIES, SolverConfig


def _build_parser() -> argparse.ArgumentParser:
    defaults = SolverConfig()
    parser = argparse.ArgumentParser(prog="tssqp", description="Two-stepsize stochastic SQP")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run an experiment plan and emit per-run rows")
    p.add_argument("--problem", action="append", default=None, metavar="NAME",
                   help="built-in name or problem-file path; repeatable")
    p.add_argument("--suite", action="store_true", help="run every built-in problem")
    p.add_argument("--strategy", action="append", required=True,
                   choices=STRATEGIES,
                   help="stepsize strategy; repeatable")
    p.add_argument("--noise", action="append", type=float, default=None, metavar="F",
                   help=f"noise variance level; repeatable (default {list(DEFAULT_NOISE_LEVELS)})")
    p.add_argument("--seeds", type=int, default=20, metavar="N", help="trials per configuration")
    p.add_argument("--iters", type=int, default=defaults.max_iters, metavar="N", help="iteration budget per run")
    p.add_argument("--beta", type=float, default=defaults.eta, metavar="F",
                   help="base stepsize eta (constant beta for linesearch/ablation)")
    for name in ("nu", "theta", "xi", "rho", "q0", "b0"):
        p.add_argument(f"--{name}", type=float, default=getattr(defaults, name), metavar="F")
    p.add_argument("--base-seed", type=int, default=0, metavar="N")
    p.add_argument("--out", default="-", metavar="PATH", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--audit", action="store_true",
                   help="also write per-run invariant audits to <out>.audit.json")
    return parser


def _check_writable(path: str) -> None:
    """Raise TssqpError unless `path` names no directory and its directory exists and is
    writable; creates and truncates nothing."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise TssqpError(f"cannot write {path}: it is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise TssqpError(f"cannot write {path}: {folder} is not a writable directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problems = list(dict.fromkeys(args.problem or []))
        if args.suite:
            problems.extend(n for n in builtin_names() if n not in problems)
        if not problems:
            raise TssqpError("no problems selected; pass --problem or --suite")
        if args.audit and args.out == "-":
            raise TssqpError("--audit needs --out to point at a file")
        if args.out != "-":
            for path in (args.out, args.out + ".audit.json")[:1 + args.audit]:
                _check_writable(path)
        plan = ExperimentPlan(
            problems=tuple(problems),
            strategies=tuple(dict.fromkeys(args.strategy)),
            noise_levels=tuple(dict.fromkeys(args.noise)) if args.noise else DEFAULT_NOISE_LEVELS,
            trials=args.seeds,
            base_seed=args.base_seed,
            config=SolverConfig(
                max_iters=args.iters,
                eta=args.beta, nu=args.nu, theta=args.theta,
                xi=args.xi, rho=args.rho, q0=args.q0, b0=args.b0,
            ),
        )
        rows = run_experiment(plan, audit=args.audit)
    except TssqpError as exc:
        print(f"tssqp: error: {exc}", file=sys.stderr)
        return 2

    text = to_csv(rows) if args.format == "csv" else to_json(rows)
    try:
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            if args.audit:
                with open(args.out + ".audit.json", "w", encoding="utf-8") as fh:
                    fh.write(audits_to_json(rows))
    except OSError as exc:
        print(f"tssqp: error: {exc}", file=sys.stderr)
        return 2

    if all(row.status.startswith("failed") for row in rows):
        print("tssqp: all runs failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
