#!/usr/bin/env python3
"""Measure a tssqp checkout end to end and kernel by kernel; write BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --label L [--out-dir DIR] [--repeats 3]

The file holds four tables:

  machine     nproc, every BLAS thread variable, the Python, numpy and
              OpenBLAS versions
  criterion6  the criterion-6 plan (every built-in x {linesearch, ablation}
              x noise {1e-5, 0.1} x 20 trials x 1000 iterations, base seed
              2024) through `run_experiment`, once per repeat in a fresh
              process: wall seconds of `run_experiment`, peak RSS in MB
              (`getrusage`), and the first 16 hex digits of the CSV's SHA-256
  lanes       us per lane-iteration of a one-cell plan (quadsphere4,
              linesearch, noise 0.1, 1000 iterations) whose B trials run as
              the B lanes of one `run_lanes` call, at B = 1, 2, 4, 8, 40, 160
  kernels     us per call of `linalg.factor_step`, `linalg.factor_reduced_lu`,
              `linalg.solve_step`, `linalg.factor_multiplier` and
              `stepsize.backtrack_rows` on stacks of B = 1 and 40 seeded
              instances (H SPD, Gaussian J, g and c) with n = 5, 50, 200 and
              m = n / 5

Every time is the median over the repeats; a kernel's repeat is as many calls
as fill 0.1 s.  `solve_step` gets the factors a run reuses (with the LU of
Z'HZ where `factor_reduced_lu` keeps it), and `backtrack_rows` searches from
alpha = 8 along the normal step of each lane's linear constraints J z + c,
which takes 3 backtracks and 4 constraint evaluations per lane.  The tables time only the
public plan and kernel functions, so the script can time an older checkout
too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tssqp import ExperimentPlan, SolverConfig, builtin_names, run_experiment  # noqa: E402
from tssqp import linalg, stepsize  # noqa: E402

LANES = (1, 2, 4, 8, 40, 160)
SIZES = (5, 50, 200)
BATCHES = (1, 40)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

CRITERION6 = """
import hashlib, json, resource, sys, time
from tssqp import ExperimentPlan, SolverConfig, builtin_names, run_experiment, to_csv
trials, iters = int(sys.argv[1]), int(sys.argv[2])
plan = ExperimentPlan(problems=tuple(builtin_names()), strategies=("linesearch", "ablation"),
                      noise_levels=(1e-5, 1e-1), trials=trials, base_seed=2024,
                      config=SolverConfig(max_iters=iters))
t0 = time.perf_counter()
rows = run_experiment(plan)
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": round(wall, 3),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "csv_sha256": hashlib.sha256(to_csv(rows).encode()).hexdigest()[:16],
                  "iterations": sum(row.iters for row in rows)}))
"""


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_variables": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def criterion6(trials: int, iters: int, repeats: int) -> dict:
    """The criterion-6 plan in `repeats` fresh processes, on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", CRITERION6, str(trials), str(iters)], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    return {
        "trials": trials, "iters": iters, "runs": runs,
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def lanes(counts, iters: int, repeats: int) -> dict:
    """{B: median us per lane-iteration} of a one-cell plan with B trials."""
    out = {}
    for B in counts:
        plan = ExperimentPlan(problems=("quadsphere4",), strategies=("linesearch",), noise_levels=(0.1,),
                              trials=B, base_seed=1, config=SolverConfig(max_iters=iters))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            rows = run_experiment(plan)
            times.append((time.perf_counter() - t0) / sum(row.iters for row in rows) * 1e6)
        out[str(B)] = round(statistics.median(times), 2)
    return out


def _instance(n: int, B: int):
    """H (n, n) SPD, J (B, m, n), g (B, n) and c (B, m), seeded by (n, B), with m = n / 5."""
    m = max(1, n // 5)
    rng = np.random.default_rng([n, B])
    R = rng.standard_normal((n, n // 2 + 1))
    H = np.eye(n) + R @ R.T / n
    return H, rng.standard_normal((B, m, n)), rng.standard_normal((B, n)), rng.standard_normal((B, m))


def _per_call_us(call, repeats: int, budget_s: float) -> float:
    call()  # warm-up
    times = []
    for _ in range(repeats):
        calls, t0 = 1, time.perf_counter()
        call()
        while (elapsed := time.perf_counter() - t0) < budget_s:
            call()
            calls += 1
        times.append(elapsed / calls * 1e6)
    return round(statistics.median(times), 2)


def kernels(sizes, batches, repeats: int, budget_s: float = 0.1) -> list[dict]:
    """One entry per kernel, n and B: us per call."""
    out = []
    for n in sizes:
        for B in batches:
            H, J, g, c = _instance(n, B)
            step, _ = linalg.factor_step(H, J)
            reused = linalg.factor_reduced_lu(step)
            # the search: linear constraints c(z) = J z + c, searched from x = 0 along the normal
            # step d, where c(x + a d) = (1 - a) c: alpha 8, 4 and 2 fail, 1 is certified
            x, d = np.zeros((B, n)), -linalg.mv(np.linalg.pinv(J), c)
            c_l1 = np.abs(c).sum(axis=1).tolist()
            calls = {
                "factor_step": lambda: linalg.factor_step(H, J),
                "factor_reduced_lu": lambda: linalg.factor_reduced_lu(step),
                "solve_step": lambda: linalg.solve_step(H, None, g, c, reused),
                "factor_multiplier": lambda: linalg.factor_multiplier(J),
                "backtrack_rows": lambda: stepsize.backtrack_rows(
                    lambda z: (linalg.mv(J, z) + c, {}), x, d, c_l1, [8.0] * B, [1e-3] * B, 1e-3, 0.5),
            }
            for name, call in calls.items():
                out.append({"kernel": name, "n": n, "m": c.shape[1], "B": B,
                            "us": _per_call_us(call, repeats, budget_s)})
    return out


def collect(repeats: int = 3, trials: int = 20, iters: int = 1000, lane_counts=LANES, sizes=SIZES,
            batches=BATCHES, budget_s: float = 0.1) -> dict:
    return {
        "machine": machine(),
        "criterion6": criterion6(trials, iters, repeats),
        "lanes": lanes(lane_counts, iters, repeats),
        "kernels": kernels(sizes, batches, repeats, budget_s),
    }


def write(data: dict, label: str, out_dir: Path) -> Path:
    path = Path(out_dir) / f"BENCH_{label}.json"
    path.write_text(json.dumps({"label": label, **data}, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--out-dir", default=str(ROOT), help="where to write it (default: the checkout's root)")
    parser.add_argument("--repeats", type=int, default=3, help="runs per measurement; the median is kept")
    args = parser.parse_args(argv)
    print(write(collect(args.repeats), args.label, Path(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
