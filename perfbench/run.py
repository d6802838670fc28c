#!/usr/bin/env python3
"""Benchmark of tssqp experiment plans, run through the public CLI entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 30 --trace 0

Every workload is a closed loop: this one process runs one plan at a time
through ``tssqp.cli.main(argv)``, exactly as ``tssqp run`` would, and starts
the next plan when the previous one returns.  It stops starting plans once
``--seconds`` are (to the nearest half plan) used up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the plans
untraced here, then the same plans again in a child process that wraps each
layer (see ``tracer.py``), and prints the per-layer metrics and the tracing
overhead.  This process never installs a wrapper.

Every plan is checked: the row count must equal the planned count, every
audit report must pass, and at the default seed the rows (without
``wall_ms``) must hash to the digests in ``reference_digests.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a check
failed and 2 when the benchmark could not run at all.

``--role reference`` rewrites ``reference_digests.json`` from the code in
this checkout.  Do that only when a change is meant to alter output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (standard library only at import time)

DEFAULT_SEED = 0
SETUP_REPEATS = 5
REFERENCE = HERE / "reference_digests.json"
REFERENCE_PLANS = 8
TIME_LIMIT_S = 170.0
FEAS_TOL = 1e-6  # the feasibility tolerance `tssqp run` plans use
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def import_tssqp():
    """Import tssqp from this checkout's src/ and from nowhere else."""
    if not (SRC / "tssqp" / "__init__.py").is_file():
        raise BenchError(f"no tssqp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tssqp
    import tssqp.cli

    if Path(tssqp.__file__).resolve().parent != SRC / "tssqp":
        raise BenchError(f"imported tssqp from {tssqp.__file__}, not from {SRC}")
    return tssqp


@dataclass
class PlanResult:
    index: int
    wall_s: float
    exit_code: int
    rows: list
    audits: list | None

    @property
    def digest(self) -> str:
        return workloads.rows_digest(self.rows)


def run_plan(cli, plans: workloads.Plans, index: int) -> PlanResult:
    """One `tssqp run` call; only cli.main is inside the timed region."""
    out = plans.out_path(index)
    argv = plans.argv(index)
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    try:
        rows = workloads.read_rows(out, plans.workload.fmt)
        audits = workloads.read_audits(out) if plans.workload.audit else None
    except FileNotFoundError:
        rows, audits = [], None
    for path in (out, out + ".audit.json"):
        if os.path.exists(path):
            os.remove(path)
    return PlanResult(index, wall, code, rows, audits)


def run_loop(cli, plans: workloads.Plans, seconds: float | None = None,
             count: int | None = None) -> list[PlanResult]:
    """Plans 0, 1, ... back to back: `count` of them, or until `seconds` are used."""
    results = []
    begin = time.perf_counter()
    while True:
        results.append(run_plan(cli, plans, len(results)))
        if count is not None:
            if len(results) >= count:
                return results
            continue
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def load_reference(workload: str) -> list[str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def check_results(results: list[PlanResult], plans: workloads.Plans, seed: int) -> list[str]:
    reference = load_reference(plans.workload.name) if seed == DEFAULT_SEED else []
    problems = []
    for res in results:
        ref = reference[res.index] if res.index < len(reference) else None
        found = workloads.check_plan(res.rows, res.audits, plans.rows_per_plan, ref)
        if res.exit_code != 0:
            found.append(f"exit code {res.exit_code}")
        problems += [f"plan {res.index}: {p}" for p in found]
    return problems


def failed_rows(results: list[PlanResult], per_plan: int) -> int:
    """Rows whose status is failed:*, plus planned rows that never appeared."""
    return sum(
        sum(r["status"].startswith("failed") for r in res.rows) + max(per_plan - len(res.rows), 0)
        for res in results
    )


def end_to_end(results: list[PlanResult], plans: workloads.Plans, setup: list[float]) -> tuple[dict, list[str]]:
    import numpy as np

    rows = [r for res in results for r in res.rows]
    planned = plans.rows_per_plan * len(results)
    wall = sum(res.wall_s for res in results)
    plan_us = [res.wall_s / max(sum(r["iters"] for r in res.rows), 1) * 1e6 for res in results]
    # Per-run times of the runs that used the whole budget: about half the
    # protocol runs converge early, so a median over all runs would jump
    # between the short converged runs and the full ones from seed to seed.
    full = [r["wall_ms"] for r in rows if r["iters"] == plans.workload.iters] or [0.0]
    # Highest percentile with at least ten runs beyond it; the median below 20 runs.
    tail = max(50.0, 100.0 * (1.0 - 10.0 / len(full)))
    stat = np.array([r["stat_error"] for r in rows]) if rows else np.zeros(1)
    completed = sum(not r["status"].startswith("failed") for r in rows)
    converged = sum(r["status"] == "converged" for r in rows)
    feasible = sum(r["feas_error"] <= FEAS_TOL for r in rows)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "runs_per_s": (len(rows) / wall, "1/s"),
        "us_per_iter": (statistics.median(plan_us), "us"),
        "run_ms_p50": (float(np.percentile(full, 50)), "ms"),
        "run_ms_tail": (float(np.percentile(full, tail)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_frac": (completed / planned, "fraction"),
        "unconverged_frac": ((planned - converged) / planned, "fraction"),
        "feasible_frac": (feasible / planned, "fraction"),
        "stat_err_mean": (float(np.nanmean(stat)), "inf-norm"),
    }
    notes = [
        f"{len(results)} plans, {len(rows)} runs, {sum(r['iters'] for r in rows)} iterations",
        f"run_ms percentiles over N={len(full)} full-budget runs; tail is the {tail:.2f} percentile",
        "us_per_iter per plan: " + " ".join(f"{u:.1f}" for u in plan_us),
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setup),
    ]
    return metrics, notes


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters (see setup_probe).

    One untimed probe runs first, so that the file cache holds the sources
    and the numpy libraries, as it does for a user's second `tssqp run`.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--role", "setup", "--workload", workload,
               "--seed", str(seed), "--work", str(workdir / f"setup{i}")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples[1:]


def setup_probe(args) -> None:
    """Time importing tssqp, generating the inputs and loading the problems."""
    t0 = time.perf_counter()
    tssqp = import_tssqp()
    plans = workloads.prepare(args.workload, args.seed, args.work, tssqp.builtin_names())
    for source in plans.problems:
        tssqp.load_problem(source)
    print(repr(time.perf_counter() - t0))


def traced_child(args) -> None:
    """Run the first `--plans` plans with every layer wrapped; print one JSON line."""
    tssqp = import_tssqp()
    import tracer

    plans = workloads.prepare(args.workload, args.seed, args.work, tssqp.builtin_names(), generate=False)
    os.environ["TSSQP_TIMING"] = "1"
    tr = tracer.Tracer()
    with tracer.installed(tr):
        results = run_loop(tssqp.cli, plans, count=args.plans)
    iterations = sum(r["iters"] for res in results for r in res.rows)
    WORK.mkdir(exist_ok=True)
    tr.save(str(WORK / f"spans-{args.workload}.npz"))
    print(json.dumps({
        "digests": [res.digest for res in results],
        "problems": check_results(results, plans, args.seed),
        "runs": sum(len(res.rows) for res in results),
        "failed": failed_rows(results, plans.rows_per_plan),
        "wall_s": sum(res.wall_s for res in results),
        "spans": len(tr.start),
        "metrics": tracer.layer_metrics(tr, iterations, len(results)),
    }))


def run_traced(args, workdir: Path, results: list[PlanResult], deadline: float) -> tuple[dict, list[str], int, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", "traced", "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(workdir), "--plans", str(len(results))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("traced run did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"traced run failed: {proc.stderr.strip()[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = list(child["problems"])
    if child["digests"] != [res.digest for res in results]:
        problems.append("traced rows differ from untraced rows")
    metrics = {name: tuple(v) for name, v in child["metrics"].items()}
    untraced = sum(len(res.rows) for res in results) / sum(res.wall_s for res in results)
    traced = child["runs"] / child["wall_s"]
    metrics["trace.runs_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.runs_per_s_traced"] = (traced, "1/s")
    metrics["trace.traced_over_untraced"] = (traced / untraced, "ratio")
    return metrics, problems, child["failed"], f"{child['spans']} spans in {WORK / ('spans-' + args.workload + '.npz')}"


def environment() -> str:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_VARS)
    return (f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} {threads} "
            f"numpy={np.__version__} blas={blas} python={sys.version.split()[0]}")


def bench(args) -> int:
    deadline = time.perf_counter() + TIME_LIMIT_S
    tssqp = import_tssqp()
    import tracer

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        plans = workloads.prepare(args.workload, args.seed, str(workdir / "inputs"), tssqp.builtin_names())
        os.environ["TSSQP_TIMING"] = "1"
        tracer.assert_untraced()
        results = run_loop(tssqp.cli, plans, seconds=args.seconds)
        tracer.assert_untraced()
        problems = check_results(results, plans, args.seed)
        attempted = plans.rows_per_plan * len(results)
        failed = failed_rows(results, plans.rows_per_plan)
        notes = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
                 environment()]
        if args.trace:
            metrics, more, traced_failed, span_note = run_traced(args, workdir / "inputs", results, deadline)
            problems += more
            attempted *= 2
            failed += traced_failed
            notes.append(span_note)
        else:
            metrics, run_notes = end_to_end(results, plans, setup)
            notes += run_notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes + problems:
        print("# " + note)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def make_reference() -> None:
    tssqp = import_tssqp()
    os.environ["TSSQP_TIMING"] = "1"
    digests = {}
    for name in workloads.WORKLOADS:
        workdir = WORK / f"reference-{name}-{os.getpid()}"
        try:
            plans = workloads.prepare(name, DEFAULT_SEED, str(workdir), tssqp.builtin_names())
            results = run_loop(tssqp.cli, plans, count=REFERENCE_PLANS)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        digests[name] = [res.digest for res in results]
        print(f"{name}: {len(results)} plans", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "plans": REFERENCE_PLANS, "workloads": digests}, fh, indent=2)
        fh.write("\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("bench", "setup", "traced", "reference"), default="bench",
                   help="internal roles: set-up probe, traced child, reference digests")
    p.add_argument("--work", help="input directory of the setup and traced roles")
    p.add_argument("--plans", type=int, help="plan count of the traced role")
    args = p.parse_args(argv)
    if args.role != "reference" and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.role == "setup":
            setup_probe(args)
        elif args.role == "traced":
            traced_child(args)
        elif args.role == "reference":
            make_reference()
        else:
            return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
