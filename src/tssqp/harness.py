"""Experiment orchestration: multi-problem, multi-noise, multi-seed runs.

An :class:`ExperimentPlan` is checked when it is built and raises
``ConfigError`` if any of its runs' configs would be invalid.

Every run's RNG stream is keyed by the plan's ``base_seed`` and a SHA-256
hash of ``base_seed | problem | strategy | noise | trial``, so adding a
problem or strategy to a plan never shifts the seeds of existing runs, and
execution order never changes the output: rows are sorted by key before
emission.

All noise-level x trial runs of one (problem, strategy) cell advance
together as the lanes of one :func:`solver.run_lanes` call; a lane's rows are
bitwise those of its run alone.

``wall_ms`` is 0 by default so that repeated runs of the same plan are
byte-identical; set ``TSSQP_TIMING=1`` to record real timings at the cost of
that guarantee.  A run's ``wall_ms`` is then the time from the start of its
cell until its lane finished.

Quartiles in :func:`summarize` use linear interpolation between order
statistics (Hyndman-Fan type 7, numpy's default).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import solver
from .diagnostics import AuditReport, audit_trace
from .errors import ConfigError, EmptyInput, check_count
from .problems import Problem, load_problem
from .solver import SolverConfig, Trace

CSV_COLUMNS = ("problem", "strategy", "noise", "trial", "status",
               "feas_error", "stat_error", "iters", "wall_ms")

DEFAULT_NOISE_LEVELS = (1e-5, 1e-3, 1e-1)


@dataclass(frozen=True)
class ExperimentPlan:
    """problems x strategies x noise_levels x trials runs of one config, checked when built.

    Each run uses `config` with its strategy and noise level replaced and
    `noise_seed` = `base_seed` (see `config_for`); the budget of every run is
    `config.max_iters`.  Each axis is kept as a tuple of any non-string iterable
    (a numpy array's as Python scalars).
    """

    problems: tuple[str, ...]
    strategies: tuple[str, ...] = ("linesearch",)
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    trials: int = 20
    base_seed: int = 0
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        for name, label in (("problems", "problem"), ("strategies", "strategy"), ("noise_levels", "noise level")):
            entries = getattr(self, name)
            if isinstance(entries, np.ndarray):
                entries = entries.tolist()
            if isinstance(entries, str) or not isinstance(entries, Iterable):
                raise ConfigError(f"a plan's {label} axis must be a collection, got {entries!r}")
            entries = tuple(entries)
            if not entries:
                raise ConfigError(f"plan needs at least one {label}")
            object.__setattr__(self, name, entries)
        axes = (("problem", self.problems), ("strategy", self.strategies), ("noise level", self.noise_levels))
        for source in self.problems:
            if not isinstance(source, str) or not source:
                raise ConfigError(f"a problem source must be a non-empty string, got {source!r}")
        check_count("trials", self.trials, 1)
        check_count("base_seed", self.base_seed, 0)
        if self.config.max_iters < 1:
            raise ConfigError("budget (config.max_iters) must be >= 1")
        for strategy in self.strategies:
            for noise_level in self.noise_levels:
                self.config_for(strategy, noise_level)
        for label, entries in axes:
            if len(set(entries)) != len(entries):
                raise ConfigError(f"plan repeats a {label}: {entries!r}")

    def config_for(self, strategy: str, noise_level: float) -> SolverConfig:
        """The config of the plan's runs of `strategy` at `noise_level`; ConfigError if it is invalid."""
        return replace(self.config, strategy=strategy, noise=noise_level, noise_seed=self.base_seed)


@dataclass(frozen=True)
class ResultRow:
    problem: str
    strategy: str
    noise: float
    trial: int
    status: str
    feas_error: float
    stat_error: float
    iters: int
    wall_ms: float
    audit: Optional[AuditReport] = None

    @property
    def key(self) -> tuple:
        return (self.problem, self.strategy, self.noise, self.trial)


def run_seed(base_seed: int, problem: str, strategy: str, noise: float, trial: int) -> int:
    """Stable 64-bit per-run seed from the run's identity (SHA-256 of a canonical string)."""
    text = f"{base_seed}|{problem}|{strategy}|{noise!r}|{trial}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _status_token(trace: Trace) -> str:
    if trace.status == solver.FAILED:
        return f"failed:{trace.fail_reason}"
    return trace.status


def _run_cell(problem: Problem, plan: ExperimentPlan, strategy: str,
              audit: bool, timing: bool) -> list[ResultRow]:
    """The rows of every noise level x trial of one (problem, strategy) cell, from one solver call,
    which keeps records only for the audit."""
    lanes = [(noise, trial) for noise in plan.noise_levels for trial in range(plan.trials)]
    traces = solver.run_lanes(
        problem,
        [plan.config_for(strategy, noise) for noise, _ in lanes],
        [run_seed(plan.base_seed, problem.name, strategy, noise, trial) for noise, trial in lanes],
        records=audit,
    )
    return [
        ResultRow(
            problem=problem.name,
            strategy=strategy,
            noise=noise,
            trial=trial,
            status=_status_token(trace),
            feas_error=trace.feas_error,
            stat_error=trace.stat_error,
            iters=trace.iterations,
            wall_ms=trace.wall_s * 1e3 if timing else 0.0,
            audit=audit_trace(trace, problem) if audit else None,
        )
        for (noise, trial), trace in zip(lanes, traces)
    ]


def run_experiment(plan: ExperimentPlan, audit: bool = False) -> list[ResultRow]:
    """One row per (problem, strategy, noise, trial), sorted by that key.

    A failed run is a row, never an omission.
    """
    problems = {name: load_problem(name) for name in plan.problems}
    sources: dict[str, str] = {}
    for source, problem in problems.items():
        first = sources.setdefault(problem.name, source)
        if first != source:
            raise ConfigError(f"{first!r} and {source!r} both name their problem {problem.name!r}; "
                              "rows are keyed and seeded by that name")
    timing = os.environ.get("TSSQP_TIMING", "0").lower() in ("1", "true", "yes")
    rows = [
        row
        for name in plan.problems
        for strategy in plan.strategies
        for row in _run_cell(problems[name], plan, strategy, audit, timing)
    ]
    rows.sort(key=lambda r: r.key)
    return rows


def to_csv(rows: Iterable[ResultRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r.problem},{r.strategy},{r.noise!r},{r.trial},{r.status},"
            f"{r.feas_error!r},{r.stat_error!r},{r.iters},{r.wall_ms!r}"
        )
    return "\n".join(lines) + "\n"


def to_json(rows: Iterable[ResultRow]) -> str:
    payload = [{column: getattr(r, column) for column in CSV_COLUMNS} for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def audits_to_json(rows: Iterable[ResultRow]) -> str:
    payload = [
        {
            "problem": r.problem, "strategy": r.strategy, "noise": r.noise,
            "trial": r.trial, "report": r.audit.payload(),
        }
        for r in rows
        if r.audit is not None
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _five_numbers(values: np.ndarray) -> dict[str, float]:
    q = np.percentile(values, [0, 25, 50, 75, 100], method="linear")
    return {"min": float(q[0]), "q1": float(q[1]), "median": float(q[2]),
            "q3": float(q[3]), "max": float(q[4])}


def summarize(rows: list[ResultRow], group_keys: tuple[str, ...] = ("strategy", "noise")) -> list[dict]:
    """Five-number summaries (type-7 quartiles) of both errors per group."""
    if not rows:
        raise EmptyInput("no rows to summarize")
    for key in group_keys:
        if key not in ("problem", "strategy", "noise", "trial", "status"):
            raise ConfigError(f"cannot group by {key!r}")
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        groups.setdefault(tuple(getattr(r, k) for k in group_keys), []).append(r)
    out = []
    for gkey in sorted(groups, key=lambda t: tuple(map(str, t))):
        members = groups[gkey]
        entry: dict = dict(zip(group_keys, gkey))
        entry["count"] = len(members)
        for err in ("feas_error", "stat_error"):
            stats = _five_numbers(np.array([getattr(r, err) for r in members], dtype=float))
            entry.update({f"{err.split('_')[0]}_{k}": v for k, v in stats.items()})
        out.append(entry)
    return out
