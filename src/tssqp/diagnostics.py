"""The merit-parameter bound and the trace auditor.

The auditor re-derives every checkable inequality from the recorded iterates:
decomposition residuals, the normal-component bound ||v|| <= ||c||_2 / sigma_min,
stepsize-range containment, backtrack-count ceilings, sufficient-decrease
certificates, and (for noise-free traces) the merit-parameter inequality with
constants taken as empirical maxima over the trace.  Empirical maxima make the
merit check strictly weaker than its idealized form with global suprema; the
report header says so.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, check_real
from .problems import Problem, evaluate, evaluate_c
from .solver import Trace
from .stepsize import backtrack_count_bound

_MERIT_NOTE = (
    "merit-parameter check uses empirical trace maxima for its constants; "
    "this is weaker than the idealized inequality with global suprema"
)


@dataclass(frozen=True)
class MeritInputs:
    """Caller-supplied constants for the merit-parameter lower bound."""

    sigma: float = 0.5
    kappa_beta: float = 1.0
    kappa_h: float = 1.0
    kappa_u: float = 1.0
    kappa_g: float = 1.0
    kappa_v: float = 1.0

    def __post_init__(self) -> None:
        vals = (self.kappa_beta, self.kappa_h, self.kappa_u, self.kappa_g, self.kappa_v)
        if any(v <= 0 for v in vals):
            raise ValueError("all merit constants must be positive")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")


def tau_min(inputs: MeritInputs) -> float:
    """Merit-parameter lower bound (1 - sigma) / (kappa_v (kappa_beta kappa_H kappa_u + kappa_g))."""
    return (1.0 - inputs.sigma) / (
        inputs.kappa_v * (inputs.kappa_beta * inputs.kappa_h * inputs.kappa_u + inputs.kappa_g)
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    violations: int = 0
    worst_margin: float = 0.0
    worst_iteration: Optional[int] = None

    def record(self, k: int, margin: float) -> None:
        """Note a violation of size `margin` at iteration k."""
        self.violations += 1
        self.passed = False
        if margin > self.worst_margin:
            self.worst_margin = margin
            self.worst_iteration = k


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

    def to_json(self) -> str:
        payload = {
            "problem": self.trace_problem,
            "strategy": self.trace_strategy,
            "iterations": self.iterations,
            "note": self.note,
            "passed": self.passed,
            "checks": [
                {
                    "check": c.name,
                    "passed": c.passed,
                    "violations": c.violations,
                    "worst_margin": c.worst_margin,
                    "iteration": c.worst_iteration,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def audit_trace(
    trace: Trace,
    problem: Problem,
    tol: float = 1e-8,
    sigma: float = 0.5,
) -> AuditReport:
    """Re-verify per-iteration invariants of a finished trace.

    The line-search parameters `xi`/`rho` come from the trace's own config.
    `tol` must be finite and positive and `sigma` lie in (0, 1); ConfigError otherwise.
    """
    check_real("tol", tol)
    check_real("sigma", sigma)
    if not (tol > 0 and 0 < sigma < 1):
        raise ConfigError(f"need tol > 0 and sigma in (0, 1), got tol={tol!r}, sigma={sigma!r}")
    report = AuditReport(
        trace_problem=trace.problem,
        trace_strategy=trace.strategy,
        iterations=trace.iterations,
        note=_MERIT_NOTE,
    )
    null_resid = CheckResult("tangential_in_null_space", True)
    range_resid = CheckResult("normal_solves_linearized", True)
    ortho = CheckResult("u_v_orthogonal", True)
    vbound = CheckResult("normal_component_bound", True)
    in_range = CheckResult("alpha_in_range", True)
    bt_bound = CheckResult("backtrack_count_bound", True)
    certificate = CheckResult("decrease_certificate", True)
    safeguard = CheckResult("safeguard_semantics", True)
    merit = CheckResult("merit_parameter_inequality", True)
    uses_search = trace.strategy in ("linesearch", "ablation")
    xi, rho = trace.config.xi, trace.config.rho

    H = trace.h_matrix
    grads = []
    for rec in trace.records:
        ev = evaluate(problem, rec.x)
        grads.append(ev.grad)
        J, c = ev.jac, ev.c
        u_scale = max(1.0, float(np.abs(rec.u).max(initial=0.0)))
        # backward-error scale: J v = -c is solved to about eps ||J|| ||v||, which grows with cond(J)
        v_scale = max(1.0, float(np.abs(c).max(initial=0.0)),
                      float(np.abs(J).sum(axis=1).max()) * float(np.abs(rec.v).max(initial=0.0)))
        r = float(np.abs(J @ rec.u).max()) - tol * u_scale
        if r > 0:
            null_resid.record(rec.k, r)
        r = float(np.abs(J @ rec.v + c).max()) - tol * v_scale
        if r > 0:
            range_resid.record(rec.k, r)
        r = abs(float(rec.u @ rec.v)) - tol * rec.u_norm * rec.v_norm
        if r > 0:
            ortho.record(rec.k, r)
        r = rec.v_norm - (rec.c_l2 / rec.sigma_min + tol)
        if r > 0:
            vbound.record(rec.k, r)
        if not (rec.alpha_lo <= rec.alpha <= rec.alpha_hi):
            in_range.record(rec.k, max(rec.alpha_lo - rec.alpha, rec.alpha - rec.alpha_hi))
        if uses_search or (trace.strategy == "fixed" and rec.n_backtracks > 0):
            bound = backtrack_count_bound(rec.alpha_lo, rec.alpha_hi, rho)
            if rec.n_backtracks > bound:
                bt_bound.record(rec.k, rec.n_backtracks - bound)
        if uses_search:
            if rec.hit_safeguard:
                if rec.alpha != rec.alpha_lo:
                    safeguard.record(rec.k, abs(rec.alpha - rec.alpha_lo))
            else:
                c_trial = evaluate_c(problem, rec.x + rec.alpha * rec.d)
                r = float(np.abs(c_trial).sum()) - (1.0 - xi * rec.alpha) * rec.c_l1
                if r > 0:
                    certificate.record(rec.k, r)

    if trace.epsilon_n == 0.0 and trace.records:
        # Noise-free: recorded u is the true tangential component, so the
        # merit bound can be instantiated with observed constants.
        kappa_h = float(np.linalg.norm(H, 2))
        kappa_g = max(float(np.linalg.norm(g)) for g in grads)
        kappa_u = max(rec.u_norm for rec in trace.records)
        kappa_b = max(rec.beta for rec in trace.records)
        ratios = [
            max(rec.v_norm, rec.v_norm**2) / rec.c_l2
            for rec in trace.records
            if rec.c_l2 > 0
        ]
        kappa_v = max(ratios) if ratios else 1.0
        if min(kappa_g, kappa_u, kappa_b) > 0:
            tmin = tau_min(MeritInputs(
                sigma=sigma, kappa_beta=kappa_b, kappa_h=kappa_h,
                kappa_u=kappa_u, kappa_g=kappa_g, kappa_v=kappa_v,
            ))
            for rec, g in zip(trace.records, grads):
                d_true = rec.beta * rec.u + rec.v
                lhs = tmin * (float(g @ d_true) + rec.beta * float(rec.u @ H @ rec.u))
                r = lhs - ((1.0 - sigma) * rec.c_l1 + tol)
                if r > 0:
                    merit.record(rec.k, r)

    report.checks = [
        null_resid, range_resid, ortho, vbound, in_range, bt_bound,
        certificate, safeguard, merit,
    ]
    return report
