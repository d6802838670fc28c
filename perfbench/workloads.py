"""The benchmark's workloads: the plans each one runs and the inputs it generates.

A plan is the argument list of one ``tssqp run`` call.  Plan ``i`` of a
workload takes its ``--base-seed`` from a hash of (workload, seed, i), so one
benchmark seed always gives the same plans, and the program sees nothing but
the plan and, for ``wide``, the problem files written here.

This module imports numpy only inside the function that needs it, so that a
set-up probe which imports this module first still pays for numpy when it
imports tssqp.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

WIDE_N = 200
WIDE_M = 40

# Row fields that the digest covers: every CSV/JSON column except wall_ms,
# which is a timing.
DIGEST_FIELDS = ("problem", "strategy", "noise", "trial", "status",
                 "feas_error", "stat_error", "iters")


@dataclass(frozen=True)
class Workload:
    name: str
    strategies: tuple[str, ...]
    noise: tuple[str, ...]
    iters: int
    fmt: str = "csv"
    audit: bool = False
    generated: int = 0  # seeded n=200 problem files; 0 runs the built-in suite


WORKLOADS = {w.name: w for w in (
    # Paper section 6 shape: n <= 5, so per-call Python overhead, evaluate and
    # the line search dominate.
    Workload("protocol", ("linesearch", "ablation"), ("1e-05", "0.1"), 1000),
    # n=200, m=40: the SVD step kernel dominates and there is no line search.
    # 100 iterations keep one run under a second; the per-iteration cost does
    # not depend on the iteration number for these strategies.  Eight
    # instances keep the instance-to-instance scatter of stat_error small.
    Workload("wide", ("fixed", "adaptive"), ("0.1",), 100, generated=8),
    # Every strategy, noise 0 (merit check, no draws) and 0.1, with the
    # auditor re-evaluating every recorded iterate.
    Workload("audited", ("linesearch", "ablation", "fixed", "adaptive"), ("0", "0.1"),
             1000, fmt="json", audit=True),
)}


@dataclass(frozen=True)
class Plans:
    """The endless, seed-determined sequence of plans of one workload."""

    workload: Workload
    seed: int
    problems: tuple[str, ...]  # built-in names, or generated file paths
    workdir: str

    @property
    def rows_per_plan(self) -> int:
        w = self.workload
        return len(self.problems) * len(w.strategies) * len(w.noise)

    def base_seed(self, index: int) -> int:
        text = f"{self.workload.name}|{self.seed}|{index}"
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")

    def out_path(self, index: int) -> str:
        return os.path.join(self.workdir, f"plan{index}.{self.workload.fmt}")

    def argv(self, index: int) -> list[str]:
        w = self.workload
        argv = ["run"]
        if w.generated:
            for path in self.problems:
                argv += ["--problem", path]
        else:
            argv.append("--suite")
        for strategy in w.strategies:
            argv += ["--strategy", strategy]
        for level in w.noise:
            argv += ["--noise", level]
        argv += ["--seeds", "1", "--iters", str(w.iters),
                 "--base-seed", str(self.base_seed(index)),
                 "--out", self.out_path(index), "--format", w.fmt]
        if w.audit:
            argv.append("--audit")
        return argv


def prepare(name: str, seed: int, workdir: str, builtin_names: list[str],
            generate: bool = True) -> Plans:
    """Plans of workload `name`; writes its problem files unless `generate` is False."""
    workload = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    if not workload.generated:
        problems = tuple(builtin_names)
    else:
        problems = tuple(os.path.join(workdir, f"wide{j}.json") for j in range(workload.generated))
        if generate:
            _write_wide_problems(seed, problems)
    return Plans(workload=workload, seed=seed, problems=problems, workdir=workdir)


def _write_wide_problems(seed: int, paths: tuple[str, ...]) -> None:
    """quadratic_linear files: Q = I + B B'/n, Gaussian A, b and g0."""
    import numpy as np

    rng = np.random.default_rng([seed, WIDE_N, WIDE_M])
    n, m = WIDE_N, WIDE_M
    for j, path in enumerate(paths):
        B = rng.standard_normal((n, n))
        Q = np.eye(n) + B @ B.T / n
        Q = 0.5 * (Q + Q.T)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        g0 = rng.standard_normal(n)
        problem = {"name": f"wide{j}", "n": n, "m": m, "kind": "quadratic_linear",
                   "Q": Q.ravel().tolist(), "g0": g0.tolist(),
                   "A": A.ravel().tolist(), "b": b.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)


def read_rows(path: str, fmt: str) -> list[dict]:
    """Rows of a CSV or JSON output file, with typed fields."""
    with open(path, encoding="utf-8", newline="") as fh:
        raw = list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)
    return [
        {"problem": str(r["problem"]), "strategy": str(r["strategy"]),
         "noise": float(r["noise"]), "trial": int(r["trial"]), "status": str(r["status"]),
         "feas_error": float(r["feas_error"]), "stat_error": float(r["stat_error"]),
         "iters": int(r["iters"]), "wall_ms": float(r["wall_ms"])}
        for r in raw
    ]


def read_audits(path: str) -> list[dict]:
    with open(path + ".audit.json", encoding="utf-8") as fh:
        return json.load(fh)


def rows_digest(rows: list[dict]) -> str:
    """SHA-256 over every row's fields except wall_ms, floats by repr."""
    h = hashlib.sha256()
    for r in rows:
        h.update((",".join(repr(r[k]) for k in DIGEST_FIELDS) + "\n").encode())
    return h.hexdigest()


def check_plan(rows: list[dict], audits: list[dict] | None, planned: int,
               reference: str | None = None) -> list[str]:
    """What is wrong with one plan's output; empty when it is correct."""
    problems = []
    if len(rows) != planned:
        problems.append(f"{len(rows)} rows for {planned} planned runs")
    if reference is not None and rows_digest(rows) != reference:
        problems.append("rows differ from the reference digest")
    if audits is not None:
        if len(audits) != len(rows):
            problems.append(f"{len(audits)} audit reports for {len(rows)} rows")
        failing = sum(not a["report"]["passed"] for a in audits)
        if failing:
            problems.append(f"{failing} audit reports did not pass")
    return problems
