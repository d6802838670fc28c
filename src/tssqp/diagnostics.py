"""The merit-parameter bound and the trace auditor.

The auditor re-derives every checkable inequality from the recorded iterates:
decomposition residuals, the normal-component bound ||v|| <= ||c||_2 / sigma_min,
stepsize-range containment, backtrack-count ceilings, sufficient-decrease
certificates, and (for noise-free traces) the merit-parameter inequality with
constants taken as empirical maxima over the trace.  Empirical maxima make the
merit check strictly weaker than its idealized form with global suprema; the
report header says so.

A trace is checked as one stack, read from its record table without building
record objects: the oracles are evaluated once on all recorded iterates (and
once on all certified trial points), and each check is one array of margins,
one per record it applies to.  A margin > 0 is a
violation, and so is a NaN one (from an overflow; warnings are off, as in the
solver).  Only operations that give each record the bits of its own
computation are used (see `linalg`).
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
from .solver import Trace, record_fields
from .stepsize import backtrack_count_bound

_MERIT_NOTE = (
    "merit-parameter check uses empirical trace maxima for its constants; "
    "this is weaker than the idealized inequality with global suprema"
)

_TOL = 1e-8  # slack of the residual, bound and merit checks
_SIGMA = 0.5  # sigma in (0, 1) of the merit-parameter check

_CHECKS = (
    "tangential_in_null_space", "normal_solves_linearized", "u_v_orthogonal", "normal_component_bound",
    "alpha_in_range", "backtrack_count_bound", "decrease_certificate", "safeguard_semantics",
    "merit_parameter_inequality",
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
    own config, the slack and sigma are `_TOL` and `_SIGMA`.  `problem` must
    carry the trace's problem name and width, and the trace must come from a
    run that kept its records; ConfigError otherwise.
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
    alpha, beta, lo, hi, n_backtracks, hit, c_l1, c_l2, _, _, sigma_min = np.ascontiguousarray(scalars.T)
    k, hit = np.arange(len(x)), hit != 0
    searched = np.full(len(k), trace.config.searches)
    certified, safeguarded = searched & ~hit, searched & hit
    xi, rho = trace.config.xi, trace.config.rho

    with np.errstate(over="ignore", invalid="ignore"):
        grad, c, J = evaluate(problem, x)[0][1:]
        trial = x[certified] + alpha[certified, None] * d[certified]
        c_trial = evaluate_c(problem, trial)[0] if len(trial) else c[:0]
        u_norm, v_norm = np.sqrt(dot(u, u)), np.sqrt(dot(v, v))
        u_scale = np.maximum(1.0, np.abs(u).max(axis=1))
        # backward-error scale: J v = -c is solved to about eps ||J|| ||v||, which grows with cond(J)
        v_scale = np.maximum(np.maximum(1.0, np.abs(c).max(axis=1)),
                             np.abs(J).sum(axis=2).max(axis=1) * np.abs(v).max(axis=1))
        # record by record: the ceiling takes math.log of Python floats
        bound = [backtrack_count_bound(a, b, rho) for a, b in zip(lo[searched].tolist(), hi[searched].tolist())]

        merit = (k[:0], c_l1[:0])
        if trace.config.noise == 0.0:
            # Noise-free: recorded u is the true tangential component, so the
            # merit bound can be instantiated with observed constants.
            H = trace.h_matrix
            kappa_h = float(np.linalg.norm(H, 2))
            kappa_g = float(np.sqrt(dot(grad, grad)).max())
            kappa_u = float(u_norm.max())
            kappa_b = float(beta.max())
            ratio = c_l2 > 0
            # `** 2` of a Python float (libm pow) now and then differs in the last bit from an array's square
            v_sq = np.array([vn ** 2 for vn in v_norm[ratio].tolist()])
            kappa_v = float((np.maximum(v_norm[ratio], v_sq) / c_l2[ratio]).max()) if ratio.any() else 1.0
            if min(kappa_g, kappa_u, kappa_b) > 0:
                tmin = tau_min(_SIGMA, kappa_b, kappa_h, kappa_u, kappa_g, kappa_v)
                lhs = tmin * (dot(grad, beta[:, None] * u + v) + beta * dot(mv(H.mT, u), u))
                merit = (k, lhs - ((1.0 - _SIGMA) * c_l1 + _TOL))

        margins = [
            (k, np.abs(mv(J, u)).max(axis=1) - _TOL * u_scale),
            (k, np.abs(mv(J, v) + c).max(axis=1) - _TOL * v_scale),
            (k, np.abs(dot(u, v)) - _TOL * u_norm * v_norm),
            (k, v_norm - (c_l2 / sigma_min + _TOL)),
            (k, np.maximum(lo - alpha, alpha - hi)),
            (k[searched], n_backtracks[searched] - np.array(bound)),
            (k[certified], np.abs(c_trial).sum(axis=1) - (1.0 - xi * alpha[certified]) * c_l1[certified]),
            (k[safeguarded], np.abs(alpha - lo)[safeguarded]),
            merit,
        ]
        report.checks = [_check(name, *margin) for name, margin in zip(_CHECKS, margins)]
    return report
