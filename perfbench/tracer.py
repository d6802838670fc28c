"""Span tracer for the benchmark's traced run.

Each layer is timed from outside the program by replacing the module
attribute its caller looks up at call time.  ``tssqp.solver`` binds its
imports by name (``from .problems import evaluate``), so the wrappers go on
``tssqp.solver.evaluate`` and its siblings, not on the defining modules; the
step kernels call ``np.linalg.svd`` through the ``numpy.linalg`` module.

A span is (name, start, end, parent span, run id).  Spans live in flat arrays
while the run goes on and are written out once at the end.  A span's self
time is its duration minus the durations of its child spans.

Only the traced child process installs wrappers; :func:`assert_untraced`
lets the untraced process prove that it holds the original functions.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute the caller resolves)
TARGETS = (
    ("cli.main", "tssqp.cli", "main"),
    ("harness.run_experiment", "tssqp.cli", "run_experiment"),
    ("harness.serialize", "tssqp.cli", "to_csv"),
    ("harness.serialize", "tssqp.cli", "to_json"),
    ("harness.serialize", "tssqp.cli", "audits_to_json"),
    ("problems.load_problem", "tssqp.harness", "load_problem"),
    ("diagnostics.audit_trace", "tssqp.harness", "audit_trace"),
    ("diagnostics.evaluate", "tssqp.diagnostics", "evaluate"),
    ("solver.run", "tssqp.solver", "run"),
    ("solver.step", "tssqp.solver", "step"),
    ("problems.evaluate", "tssqp.solver", "evaluate"),
    ("problems.standard_normal_vector", "tssqp.solver", "standard_normal_vector"),
    ("linalg.solve_step", "tssqp.solver", "solve_step"),
    ("linalg.least_squares_multiplier", "tssqp.solver", "least_squares_multiplier"),
    ("stepsize.safeguarded_backtrack", "tssqp.solver", "safeguarded_backtrack"),
    ("stepsize.adaptive_update", "tssqp.solver", "adaptive_update"),
    ("linalg.svd", "numpy.linalg", "svd"),
)

_MARK = "__perfbench_span__"


def svd_flops(shape: tuple[int, ...], full_matrices: bool = True, compute_uv: bool = True) -> float:
    """Golub-Reinsch SVD operation count (Golub & Van Loan) for an (..., r, c) stack.

    With M >= N the larger and smaller dimension: singular values only
    4MN^2 - 4N^3/3; thin factors 14MN^2 + 8N^3; full factors
    4M^2N + 8MN^2 + 9N^3.  Computed from shapes, not measured.
    """
    big, small = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        one = 4.0 * big * small**2 - 4.0 * small**3 / 3.0
    elif full_matrices:
        one = 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
    else:
        one = 14.0 * big * small**2 + 8.0 * small**3
    return one * math.prod(shape[:-2])


class Tracer:
    """Spans in flat arrays plus the counters read from return values."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self._open: list[int] = []
        self._run = -1
        self.runs = 0
        self.svd_shapes: dict[tuple, int] = {}
        self.searches = 0
        self.backtracks = 0
        self.certified = 0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._open
        name_id, start, end, parent, run = self.name_id, self.start, self.end, self.parent, self.run
        after = _AFTER.get(name)
        opens_run = name == "solver.run"
        tracer = self

        def wrapper(*args, **kwargs):
            if opens_run:
                outer = tracer._run
                tracer._run = tracer.runs
                tracer.runs += 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer._run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if opens_run:
                    tracer._run = outer
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def _after_svd(tracer: Tracer, args, kwargs, result) -> None:
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    key = (np.shape(args[0]), bool(full), bool(uv))
    tracer.svd_shapes[key] = tracer.svd_shapes.get(key, 0) + 1


def _after_backtrack(tracer: Tracer, args, kwargs, result) -> None:
    _, hit_safeguard, n_backtracks = result
    tracer.searches += 1
    tracer.backtracks += n_backtracks
    tracer.certified += not hit_safeguard


_AFTER = {"linalg.svd": _after_svd, "stepsize.safeguarded_backtrack": _after_backtrack}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the originals."""
    saved = []
    try:
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def installed_wrappers() -> list[str]:
    """'module.attribute' of every target that currently holds a wrapper."""
    found = []
    for _, module, attr in TARGETS:
        if hasattr(getattr(importlib.import_module(module), attr), _MARK):
            found.append(f"{module}.{attr}")
    return found


def assert_untraced() -> None:
    found = installed_wrappers()
    if found:
        raise RuntimeError(f"tracing wrappers installed in the untraced process: {found}")


def layer_metrics(tracer: Tracer, iterations: int, plans: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} after a run under `installed`.

    Every target's name is registered when it is wrapped, so a layer that
    never ran reads 0.
    """
    a = tracer.arrays()
    names = list(a["names"])
    name_id, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    calls = np.bincount(name_id, minlength=len(names))
    self_sum = np.bincount(name_id, weights=dur - child, minlength=len(names))

    def n_calls(name):
        return int(calls[names.index(name)])

    def self_s(name):
        return float(self_sum[names.index(name)])

    def per(num, den):
        return num / den if den else 0.0

    flops = sum(svd_flops(*key) * count for key, count in tracer.svd_shapes.items())
    wall = float(dur[name_id == names.index("cli.main")].sum())
    in_search = int(((name_id == names.index("problems.evaluate")) & has_parent
                     & (name_id[np.maximum(parent, 0)] == names.index("stepsize.safeguarded_backtrack"))).sum())

    def us(name):
        return (per(self_s(name), n_calls(name)) * 1e6, "us")

    def share(name):
        return (per(self_s(name), wall), "fraction")

    def calls_per_iter(name):
        return (per(n_calls(name), iterations), "calls/iter")

    return {
        "problems.evaluate.calls_per_iter": calls_per_iter("problems.evaluate"),
        "problems.evaluate.self_us": us("problems.evaluate"),
        "problems.evaluate.self_share": share("problems.evaluate"),
        "problems.standard_normal_vector.self_us": us("problems.standard_normal_vector"),
        "problems.load_problem.self_s": (per(self_s("problems.load_problem"), plans), "s/plan"),
        "linalg.solve_step.self_us": us("linalg.solve_step"),
        "linalg.solve_step.self_share": share("linalg.solve_step"),
        "linalg.least_squares_multiplier.calls_per_iter": calls_per_iter("linalg.least_squares_multiplier"),
        "linalg.least_squares_multiplier.self_us": us("linalg.least_squares_multiplier"),
        "linalg.svd.calls_per_iter": calls_per_iter("linalg.svd"),
        "linalg.svd.self_us": us("linalg.svd"),
        "linalg.svd.flops_computed_per_iter": (per(flops, iterations), "flop/iter"),
        "stepsize.safeguarded_backtrack.self_us": us("stepsize.safeguarded_backtrack"),
        "stepsize.search.trial_evals_per_search": (per(in_search, tracer.searches), "evals/search"),
        "stepsize.search.backtracks_per_search": (per(tracer.backtracks, tracer.searches), "count/search"),
        "stepsize.search.certified_frac": (per(tracer.certified, tracer.searches), "fraction"),
        "stepsize.adaptive_update.self_us": us("stepsize.adaptive_update"),
        "solver.step.self_us": us("solver.step"),
        "solver.run.self_us_per_iter": (per(self_s("solver.run"), iterations) * 1e6, "us/iter"),
        "diagnostics.audit_trace.self_us_per_iter": (per(self_s("diagnostics.audit_trace"), iterations) * 1e6, "us/iter"),
        "diagnostics.audit_trace.self_share": share("diagnostics.audit_trace"),
        "diagnostics.evaluate.calls_per_iter": calls_per_iter("diagnostics.evaluate"),
        "harness.run_experiment.self_s": (per(self_s("harness.run_experiment"), plans), "s/plan"),
        "harness.serialize.self_s": (per(self_s("harness.serialize"), plans), "s/plan"),
        "cli.main.self_s": (per(self_s("cli.main"), plans), "s/plan"),
    }
