"""Iteration loops for the two-stepsize SQP method.

One `step` performs: sample a stochastic gradient, solve the Newton KKT
system, split the step into tangential and normal components, pick the
tangential stepsize beta and the global stepsize alpha according to the
configured strategy, and move.  `run` drives steps until the iterate is both
sufficiently feasible and stationary, the budget runs out, or the step
computation fails.

Stepsizes
---------
Every strategy moves by x <- x + alpha d with d = beta u + v (ablation:
d = beta p, standing in for single-stepsize stochastic SQP) and alpha in
[lo, hi].  `step` computes (beta, lo, hi) by one rule:

beta    eta / b for adaptive, where b^2 += ||u||^2 starting from b0;
        eta / sqrt(max_iters) for fixed with alpha_rule lower/upper;
        the constant eta otherwise.
lo      nu for fixed; otherwise nu / q, where the Adagrad-Norm accumulator
        q^2 += ||c||_1 starts from q0 and advances every iteration.
hi      lo + min(theta / b, theta / q) for adaptive; lo + theta beta otherwise.
alpha   the safeguarded backtracking search over [lo, hi] for linesearch,
        ablation, and fixed with alpha_rule backtrack; otherwise the endpoint
        that alpha_rule names.

A step whose beta or lo underflows to 0 raises NonPositiveBeta, which `run`
reports as the failure token `stepsize_underflow`.

Stationarity is always measured with the true gradient and the least-squares
multiplier, never with the stochastic gradient.

Work per iteration: one full oracle evaluation at the iterate, shared by the
termination check and the step, and one constraint-only evaluation per
line-search trial.  H is built once per run.  The step and the multiplier
factorizations of J are kept on the state and reused while J stays bitwise
the same, as it does for linear constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    EvaluationFailure,
    IndefiniteReducedHessian,
    NonPositiveBeta,
    RankDeficientJacobian,
    check_count,
)
from .linalg import (
    StepFactors,
    factor_multiplier,
    factor_step,
    least_squares_multiplier,
    solve_step,
)
from .problems import Evaluation, NoiseModel, Problem, evaluate, evaluate_c, standard_normal_vector
from .stepsize import adaptive_update, safeguarded_backtrack

STRATEGIES = ("fixed", "adaptive", "linesearch", "ablation")

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"
FAILED = "failed"

_FAIL_TOKENS = {
    RankDeficientJacobian: "rank_deficient_jacobian",
    IndefiniteReducedHessian: "indefinite_reduced_hessian",
    EvaluationFailure: "evaluation_failure",
    NonPositiveBeta: "stepsize_underflow",
}


_FLOAT_FIELDS = ("feas_tol", "stat_tol", "eta", "nu", "theta", "xi", "rho", "q0", "b0")


@dataclass(frozen=True)
class SolverConfig:
    strategy: str = "linesearch"
    max_iters: int = 1000
    feas_tol: float = 1e-6
    stat_tol: float = 1e-4
    eta: float = 0.1
    nu: float = 1.0
    theta: float = 1.0
    xi: float = 1e-3
    rho: float = 0.5
    q0: float = 1e-9
    b0: float = 1.0
    alpha_rule: str = "lower"
    noise: NoiseModel = field(default_factory=NoiseModel)
    stat_every: int = 1

    def validate(self) -> None:
        check_count("max_iters", self.max_iters, 0)
        check_count("stat_every", self.stat_every, 1)
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not math.isfinite(self.noise.epsilon_n):
            raise ConfigError(f"noise level must be finite, got {self.noise.epsilon_n!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        if self.feas_tol <= 0 or self.stat_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.eta <= 0 or self.nu <= 0 or self.theta < 0:
            raise ConfigError("need eta > 0, nu > 0, theta >= 0")
        if not (0 < self.xi < 1) or not (0 < self.rho < 1):
            raise ConfigError("need xi, rho in (0, 1)")
        if self.q0 <= 0 or self.b0 <= 0:
            raise ConfigError("need q0, b0 > 0")
        if self.alpha_rule not in ("lower", "upper", "backtrack"):
            raise ConfigError(f"unknown alpha_rule {self.alpha_rule!r}")
        if self.strategy == "adaptive" and self.alpha_rule == "backtrack":
            raise ConfigError("the adaptive strategy takes range endpoints only (alpha_rule lower/upper)")


@dataclass
class SolverState:
    """Iterate, noise stream and stepsize accumulators of one run, plus per-run caches.

    `h` is the model matrix H.  `b` and `q` are the Adagrad-Norm accumulators,
    started at b0 and q0.  `step_factors`/`multiplier_factors` hold the last
    J's bytes with its `factor_step`/`factor_multiplier` result.
    """

    k: int
    x: np.ndarray
    stream: np.random.Generator
    h: np.ndarray
    b: float
    q: float
    step_factors: Optional[tuple[bytes, StepFactors]] = None
    multiplier_factors: Optional[tuple[bytes, tuple]] = None


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration instrumentation, all quantities at the pre-step iterate x.

    `d` is the direction actually taken: beta * u + v, or beta * p for the
    ablation strategy.
    """

    k: int
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    y: np.ndarray
    alpha: float
    beta: float
    alpha_lo: float
    alpha_hi: float
    n_backtracks: int
    hit_safeguard: bool
    c_l1: float
    c_l2: float
    c_inf: float
    stat_inf: float
    sigma_min: float

    @property
    def u_norm(self) -> float:
        return float(np.linalg.norm(self.u))

    @property
    def v_norm(self) -> float:
        return float(np.linalg.norm(self.v))


@dataclass(frozen=True)
class Trace:
    """A finished run together with the configuration that produced it."""

    problem: str
    config: SolverConfig
    status: str
    fail_reason: Optional[str]
    records: list[IterationRecord]
    iterations: int
    feas_error: float
    stat_error: float
    x_final: np.ndarray
    h_matrix: np.ndarray
    seed: int

    @property
    def strategy(self) -> str:
        return self.config.strategy

    @property
    def epsilon_n(self) -> float:
        return self.config.noise.epsilon_n


def _h_matrix(problem: Problem) -> np.ndarray:
    if problem.h_matrix is not None:
        return np.asarray(problem.h_matrix, dtype=float)
    return np.eye(problem.n)


def init_state(problem: Problem, config: SolverConfig, seed: int = 0, x0=None) -> SolverState:
    config.validate()
    x = np.asarray(problem.x0 if x0 is None else x0, dtype=float).copy()
    return SolverState(k=0, x=x, stream=config.noise.stream(int(seed)), h=_h_matrix(problem),
                       b=config.b0, q=config.q0)


def _noisy_gradient(grad: np.ndarray, noise: NoiseModel, stream: np.random.Generator) -> np.ndarray:
    if noise.epsilon_n == 0.0:
        return grad.copy()
    return grad + math.sqrt(noise.epsilon_n) * standard_normal_vector(stream, grad.shape[0])


def _reuse(cached: Optional[tuple], J: np.ndarray, factor: Callable) -> tuple:
    """The cached (J bytes, factors) pair if J has the same bytes, else (bytes, factor(J))."""
    key = J.tobytes()
    if cached is not None and cached[0] == key:
        return cached
    return key, factor(J)


def _stationarity(state: SolverState, J: np.ndarray, grad: np.ndarray) -> float:
    state.multiplier_factors = _reuse(state.multiplier_factors, J, factor_multiplier)
    y = least_squares_multiplier(J, grad, state.multiplier_factors[1])
    return float(np.abs(grad + J.T @ y).max())


def step(
    state: SolverState,
    problem: Problem,
    config: SolverConfig,
    evaluation: Optional[Evaluation] = None,
    stat_inf: Optional[float] = None,
) -> tuple[SolverState, IterationRecord]:
    """Advance one iteration; returns the mutated state and its record.

    `evaluation`/`stat_inf` let `run` share work already done for the
    termination check; when omitted they are computed here.
    """
    ev = evaluation if evaluation is not None else evaluate(problem, state.x)
    H = state.h
    x = state.x
    c_l1 = float(np.abs(ev.c).sum())
    if stat_inf is None:
        stat_inf = _stationarity(state, ev.jac, ev.grad)

    g = _noisy_gradient(ev.grad, config.noise, state.stream)
    state.step_factors = _reuse(state.step_factors, ev.jac, lambda J: factor_step(H, J))
    ksol, u, v, sigma_min, _ = solve_step(H, ev.jac, g, ev.c, state.step_factors[1])

    def c_oracle(z: np.ndarray) -> np.ndarray:
        return evaluate_c(problem, z)

    beta = config.eta
    if config.strategy == "fixed":
        if config.alpha_rule != "backtrack":
            beta /= math.sqrt(max(config.max_iters, 1))
        lo = config.nu
    else:
        state.q = math.sqrt(state.q * state.q + c_l1)
        lo = config.nu / state.q
    if config.strategy == "adaptive":
        state.b = adaptive_update(state.b, float(u @ u))
        beta = config.eta / state.b
        hi = lo + min(config.theta / state.b, config.theta / state.q)
    else:
        hi = lo + config.theta * beta
    if not (beta > 0.0 and lo > 0.0):
        raise NonPositiveBeta(f"stepsizes underflowed: beta = {beta!r}, alpha lower end = {lo!r}")

    direction = beta * ksol.p if config.strategy == "ablation" else beta * u + v
    n_backtracks, hit_safeguard = 0, False
    if config.strategy in ("linesearch", "ablation") or config.alpha_rule == "backtrack":
        alpha, hit_safeguard, n_backtracks = safeguarded_backtrack(
            c_oracle, x, direction, c_l1, hi, lo, config.xi, config.rho
        )
    else:
        alpha = lo if config.alpha_rule == "lower" else hi

    record = IterationRecord(
        k=state.k, x=x.copy(), u=u, v=v, d=direction, y=ksol.y,
        alpha=float(alpha), beta=float(beta), alpha_lo=float(lo), alpha_hi=float(hi),
        n_backtracks=n_backtracks, hit_safeguard=hit_safeguard,
        c_l1=c_l1, c_l2=float(np.linalg.norm(ev.c)), c_inf=float(np.abs(ev.c).max()),
        stat_inf=float(stat_inf), sigma_min=float(sigma_min),
    )
    state.x = x + alpha * direction
    state.k += 1
    return state, record


def run(problem: Problem, config: SolverConfig, seed: int = 0, x0=None) -> Trace:
    """Iterate until converged, out of budget, or failed.

    Reported errors follow the experiment protocol: the measures at the first
    sufficiently feasible iterate when one exists, otherwise at the least
    infeasible iterate visited (terminal point included).
    """
    state = init_state(problem, config, seed=seed, x0=x0)
    records: list[IterationRecord] = []
    status = BUDGET_EXHAUSTED
    fail_reason = None
    first_feasible: Optional[tuple[float, float]] = None
    least_infeasible: tuple[float, tuple[float, float]] = (math.inf, (math.nan, math.nan))

    def observe(k: int) -> tuple[float, float, Evaluation]:
        """Measures at the current iterate; returns (feas_inf, stat_inf, evaluation)."""
        nonlocal first_feasible, least_infeasible
        ev = evaluate(problem, state.x)
        feas = float(np.abs(ev.c).max())
        want_stat = (k % config.stat_every == 0) or (feas <= config.feas_tol)
        stat = _stationarity(state, ev.jac, ev.grad) if want_stat else math.nan
        if feas <= config.feas_tol and first_feasible is None:
            first_feasible = (feas, stat)
        if feas < least_infeasible[0]:
            least_infeasible = (feas, (feas, stat))
        return feas, stat, ev

    try:
        converged = False
        for k in range(config.max_iters):
            feas, stat, ev = observe(k)
            if feas <= config.feas_tol and stat <= config.stat_tol:
                converged = True
                break
            state, rec = step(state, problem, config, evaluation=ev, stat_inf=stat)
            records.append(rec)
        else:
            observe(config.max_iters)
        if converged:
            status = CONVERGED
    except tuple(_FAIL_TOKENS) as exc:
        status = FAILED
        fail_reason = _FAIL_TOKENS[type(exc)]

    if first_feasible is not None:
        feas_error, stat_error = first_feasible
    else:
        feas_error, stat_error = least_infeasible[1]
    return Trace(
        problem=problem.name,
        config=config,
        status=status,
        fail_reason=fail_reason,
        records=records,
        iterations=len(records),
        feas_error=feas_error,
        stat_error=stat_error,
        x_final=state.x.copy(),
        h_matrix=state.h,
        seed=int(seed),
    )

