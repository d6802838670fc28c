"""The merit-parameter bound and the trace auditor.

The auditor re-derives every checkable inequality from the recorded iterates:
decomposition residuals, the normal-component bound ||v|| <= ||c||_2 / sigma_min,
the two-stepsize rule (`stepsize_rule`: beta, lo and hi equal those of
`solver.stepsize_rule` replayed from q0 and b0 over the recorded ||c||_1 and
||u||^2) and the direction (`direction_composition`: d = beta u + v, or
beta (u + v) for ablation, from the recorded beta), both with no slack,
stepsize-range containment, backtrack-count ceilings, sufficient-decrease
certificates, and (for noise-free traces) the merit-parameter inequality with
constants taken as empirical maxima over the trace.  Empirical maxima make the
merit check strictly weaker than its idealized form with global suprema; the
report header says so.

A trace is checked as one stack, read from its record table without building
record objects: the oracles are evaluated once on all recorded iterates (and
once on all certified trial points), and each check is one array of margins,
one per record it applies to.  A margin > 0 is a violation, and so is a NaN
one (from an overflow, or from a corrupted record for which a check has no
value; warnings are off, as in the solver).  Only operations that give each
record the bits of its own computation are used (see `linalg`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .linalg import dot, mv
from .problems import Problem, evaluate, evaluate_c
from .solver import RECORD_SCALARS, Trace, record_fields, stepsize_rule
from .stepsize import backtrack_count_bound

_MERIT_NOTE = (
    "merit-parameter check uses empirical trace maxima for its constants; "
    "this is weaker than the idealized inequality with global suprema"
)

_TOL = 1e-8  # slack of the residual, bound and merit checks; the stepsize checks have none
_SIGMA = 0.5  # sigma in (0, 1) of the merit-parameter check

_CHECKS = (
    "tangential_in_null_space", "normal_solves_linearized", "u_v_orthogonal", "normal_component_bound",
    "stepsize_rule", "direction_composition", "alpha_in_range", "backtrack_count_bound", "decrease_certificate",
    "safeguard_semantics", "merit_parameter_inequality",
)


def tau_min(sigma: float, kappa_beta: float, kappa_h: float, kappa_u: float, kappa_g: float,
            kappa_v: float) -> float:
    """Merit-parameter lower bound (1 - sigma) / (kappa_v (kappa_beta kappa_H kappa_u + kappa_g))."""
    return (1.0 - sigma) / (kappa_v * (kappa_beta * kappa_h * kappa_u + kappa_g))


@dataclass
class CheckResult:
    name: str
    passed: bool
    violations: int = 0
    worst_margin: float = 0.0
    worst_iteration: Optional[int] = None


def _check(name: str, k: np.ndarray, margin: np.ndarray) -> CheckResult:
    """The check `name` from one margin per iteration in k: a margin > 0 is a violation, and
    so is a NaN one.  The worst is the largest margin (NaN above every number), at the first
    k that reaches it."""
    violated = ~(margin <= 0)
    if not violated.any():
        return CheckResult(name, True)
    i = int(np.argmax(margin))
    return CheckResult(name, False, int(violated.sum()), float(margin[i]), int(k[i]))


def _count_bound(lower: float, upper: float, rho: float) -> float:
    """`backtrack_count_bound`, or NaN, a violation, for a recorded range that has no ceiling
    (lower <= 0 or NaN, which only a corrupted record holds)."""
    try:
        return backtrack_count_bound(lower, upper, rho)
    except (ValueError, OverflowError):
        return math.nan


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| elementwise, 0 where a == b (equal infinities included): the margin of a
    check that asks for the same bits."""
    return np.where(a == b, 0.0, np.abs(a - b))


@dataclass
class AuditReport:
    trace_problem: str
    trace_strategy: str
    iterations: int
    note: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        """The report as JSON values, keys in sorted order; a non-finite margin is the string
        "nan", "inf" or "-inf", so the payload is strict JSON."""
        return {
            "checks": [
                {
                    "check": c.name,
                    "iteration": c.worst_iteration,
                    "passed": c.passed,
                    "violations": c.violations,
                    "worst_margin": c.worst_margin if math.isfinite(c.worst_margin) else str(c.worst_margin),
                }
                for c in self.checks
            ],
            "iterations": self.iterations,
            "note": self.note,
            "passed": self.passed,
            "problem": self.trace_problem,
            "strategy": self.trace_strategy,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, allow_nan=False)


def audit_trace(trace: Trace, problem: Problem) -> AuditReport:
    """Re-verify per-iteration invariants of a finished trace of `problem`.

    Calls `eval_fn` once on the stack of recorded iterates and `c_fn` at most
    once, on the certified trial points; a trace of no iterations calls neither
    and passes.  The line-search parameters `xi`/`rho` come from the trace's
    own config, the slack and sigma are `_TOL` and `_SIGMA`.  The merit check
    reads H from `problem.h_matrix`, None being the identity: kappa_H = 1 and
    H'u = u, so no matrix norm is taken.  `problem` must carry the trace's
    problem name and width, and the trace must come from a run that kept its
    records; ConfigError otherwise.
    """
    if problem.name != trace.problem or np.shape(trace.x_final) != (problem.n,):
        raise ConfigError(f"a trace of {trace.problem!r} with iterates of shape {np.shape(trace.x_final)} "
                          f"cannot be audited against {problem.name!r} with n={problem.n}")
    if trace.table is None:
        raise ConfigError(f"a trace of {trace.problem!r} run without records cannot be audited")
    report = AuditReport(trace.problem, trace.strategy, trace.iterations, _MERIT_NOTE)
    if not len(trace.table):
        report.checks = [CheckResult(name, True) for name in _CHECKS]
        return report
    x, u, v, d, scalars = record_fields(trace.table, problem.n)
    x, u, v, d = (np.ascontiguousarray(a) for a in (x, u, v, d))
    column = dict(zip(RECORD_SCALARS, np.ascontiguousarray(scalars.T)))
    alpha, beta, lo, hi = column["alpha"], column["beta"], column["alpha_lo"], column["alpha_hi"]
    c_l1, c_l2, sigma_min = column["c_l1"], column["c_l2"], column["sigma_min"]
    k, hit = np.arange(len(x)), column["hit_safeguard"] != 0
    config = trace.config
    searched = np.full(len(k), config.searches)
    certified, safeguarded = searched & ~hit, searched & hit
    xi, rho = config.xi, config.rho

    with np.errstate(over="ignore", invalid="ignore"):
        grad, c, J = evaluate(problem, x)[0][1:]
        trial = x[certified] + alpha[certified, None] * d[certified]
        c_trial = evaluate_c(problem, trial)[0] if len(trial) else c[:0]
        u_sq = dot(u, u)
        u_norm, v_norm = np.sqrt(u_sq), np.sqrt(dot(v, v))
        u_scale = np.maximum(1.0, np.abs(u).max(axis=1))
        # backward-error scale: J v = -c is solved to about eps ||J|| ||v||, which grows with cond(J)
        v_scale = np.maximum(np.maximum(1.0, np.abs(c).max(axis=1)),
                             np.abs(J).sum(axis=2).max(axis=1) * np.abs(v).max(axis=1))
        # record by record: the ceiling takes math.log of Python floats
        bound = [_count_bound(a, b, rho) for a, b in zip(lo[searched].tolist(), hi[searched].tolist())]
        # the rule replayed from q0 and b0, one record after another, as the run advanced it
        q, b, rule = config.q0, config.b0, []
        for l1, uu in zip(c_l1.tolist(), u_sq.tolist()):
            try:
                q, b, *stepsizes = stepsize_rule(config, q, b, l1, uu)
            except ValueError:  # a negative recorded ||c||_1 under the square root: no rule from here on
                q, b, stepsizes = math.nan, math.nan, [math.nan] * 3
            rule.append(stepsizes)
        # recomputed from the recorded beta, u and v alone, not through the rule
        composed = beta[:, None] * (u + v) if config.strategy == "ablation" else beta[:, None] * u + v

        merit = (k[:0], c_l1[:0])
        if config.noise == 0.0:
            # Noise-free: recorded u is the true tangential component, so the
            # merit bound can be instantiated with observed constants.
            H = problem.h_matrix
            kappa_h = 1.0 if H is None else float(np.linalg.norm(H, 2))
            kappa_g = float(np.sqrt(dot(grad, grad)).max())
            kappa_u = float(u_norm.max())
            kappa_b = float(beta.max())
            ratio = c_l2 > 0
            # `** 2` of a Python float (libm pow) now and then differs in the last bit from an array's square
            v_sq = np.array([vn ** 2 for vn in v_norm[ratio].tolist()])
            kappa_v = float((np.maximum(v_norm[ratio], v_sq) / c_l2[ratio]).max()) if ratio.any() else 1.0
            if min(kappa_g, kappa_u, kappa_b) > 0:
                tmin = tau_min(_SIGMA, kappa_b, kappa_h, kappa_u, kappa_g, kappa_v)
                u_h_u = u_sq if H is None else dot(mv(H.mT, u), u)
                lhs = tmin * (dot(grad, beta[:, None] * u + v) + beta * u_h_u)
                merit = (k, lhs - ((1.0 - _SIGMA) * c_l1 + _TOL))

        margins = [
            (k, np.abs(mv(J, u)).max(axis=1) - _TOL * u_scale),
            (k, np.abs(mv(J, v) + c).max(axis=1) - _TOL * v_scale),
            (k, np.abs(dot(u, v)) - _TOL * u_norm * v_norm),
            (k, v_norm - (c_l2 / sigma_min + _TOL)),
            (k, _gap(np.stack((beta, lo, hi), axis=1), np.array(rule)).max(axis=1)),
            (k, _gap(d, composed).max(axis=1)),
            (k, np.maximum(lo - alpha, alpha - hi)),
            (k[searched], column["n_backtracks"][searched] - np.array(bound)),
            (k[certified], np.abs(c_trial).sum(axis=1) - (1.0 - xi * alpha[certified]) * c_l1[certified]),
            (k[safeguarded], np.abs(alpha - lo)[safeguarded]),
            merit,
        ]
        report.checks = [_check(name, *margin) for name, margin in zip(_CHECKS, margins)]
    return report
