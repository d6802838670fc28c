"""Iteration loops for the two-stepsize SQP method.

One iteration performs: sample a stochastic gradient, solve the Newton KKT
system, split the step into tangential and normal components, pick the
tangential stepsize beta and the global stepsize alpha according to the
configured strategy, and move.  A run iterates until the iterate is both
sufficiently feasible and stationary, the budget runs out, or the step
computation fails.

Lanes
-----
`run_lanes` advances B runs of one problem ("lanes") in lockstep, as one
stacked iteration on state x of shape (B, n).  The lanes may differ only in
their noise model and seed.  Every operation on the stack gives each lane
the bits it gets alone (see `linalg`), and each lane keeps its own noise
stream, accumulators, termination, failure token and records, so lane i's
trace is bitwise the trace of `run(problem, configs[i], seeds[i])`.  `run`
is the B = 1 case of the same code.  A lane leaves the stack when it
finishes; a failure ends only its own lane.

Stepsizes
---------
Every strategy moves by x <- x + alpha d with d = beta u + v (ablation:
d = beta p, standing in for single-stepsize stochastic SQP) and alpha in
[lo, hi].  Each iteration computes (beta, lo, hi) per lane by one rule:

beta    eta / b for adaptive, where b^2 += ||u||^2 starting from b0;
        eta / sqrt(max_iters) for fixed with alpha_rule lower/upper;
        the constant eta otherwise.
lo      nu for fixed; otherwise nu / q, where the Adagrad-Norm accumulator
        q^2 += ||c||_1 starts from q0 and advances every iteration.
hi      lo + min(theta / b, theta / q) for adaptive; lo + theta beta otherwise.
alpha   the safeguarded backtracking search over [lo, hi] for linesearch,
        ablation, and fixed with alpha_rule backtrack; otherwise the endpoint
        that alpha_rule names.

A lane whose beta or lo underflows to 0 ends with the failure token
`stepsize_underflow`; one whose beta or hi overflows to inf ends with
`stepsize_overflow`.  The iteration runs with overflow and invalid-value
warnings off.

Stationarity is always measured with the true gradient and the least-squares
multiplier, never with the stochastic gradient.

Work per iteration: one full oracle evaluation of the stack, shared by the
termination check and the step, and one constraint-only evaluation per
line-search round.  H is built once per run.  A Jacobian that is one matrix
for all lanes (linear constraints) is factored once and its factors are kept
while its bytes stay the same; per-lane Jacobians are factored as a stack.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EvaluationFailure,
    IndefiniteReducedHessian,
    NonPositiveBeta,
    RankDeficientJacobian,
    StepsizeOverflow,
    check_count,
)
from .linalg import (
    StepFactors,
    dot,
    factor_multiplier_lanes,
    factor_step_lanes,
    least_squares_multiplier,
    mv,
    solve_step,
)
from .problems import (
    Evaluation,
    NoiseModel,
    Problem,
    evaluate_c_rows,
    evaluate_rows,
    standard_normal_rows,
)
from .stepsize import adaptive_update, backtrack_rows

# The one-point forms of the layers, bound here by name like the stacked
# forms, so that a profiler wrapping tssqp.solver.<name> finds every layer.
from .problems import evaluate, standard_normal_vector  # noqa: F401
from .stepsize import safeguarded_backtrack  # noqa: F401

STRATEGIES = ("fixed", "adaptive", "linesearch", "ablation")

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"
FAILED = "failed"

_FAIL_TOKENS = {
    RankDeficientJacobian: "rank_deficient_jacobian",
    IndefiniteReducedHessian: "indefinite_reduced_hessian",
    EvaluationFailure: "evaluation_failure",
    NonPositiveBeta: "stepsize_underflow",
    StepsizeOverflow: "stepsize_overflow",
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

    def validate(self) -> None:
        check_count("max_iters", self.max_iters, 0)
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
    """Iterates, noise streams and stepsize accumulators of the lanes still running.

    Row i of `x` (B, n) and `scale` (B, 1) and entry i of `streams`, `b` and
    `q` belong to the lane numbered `lane[i]` in its run; a row leaves when
    its lane finishes.  `scale` is sqrt(noise level); `noisy` lists the rows
    with a nonzero one, or is None when that is every row.  `b` and `q` are
    the Adagrad-Norm accumulators, started at b0 and q0.  `h` is the model
    matrix H.  `shared` holds the bytes of the last Jacobian shared by all
    lanes with its multiplier and step factorizations and their failures.
    """

    k: int
    x: np.ndarray
    streams: list
    scale: np.ndarray
    h: np.ndarray
    b: list[float]
    q: list[float]
    lane: np.ndarray
    shared: Optional[tuple[bytes, tuple, tuple]] = None
    noisy: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self) -> None:
        noisy = np.flatnonzero(self.scale[:, 0] > 0.0)
        self.noisy = None if len(noisy) == len(self.scale) else noisy

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows where the boolean mask `rows` is True."""
        self.x, self.scale, self.lane = self.x[rows], self.scale[rows], self.lane[rows]
        keep = rows.tolist()
        self.streams, self.b, self.q = ([a for a, k in zip(items, keep) if k]
                                        for items in (self.streams, self.b, self.q))
        self.__post_init__()


@dataclass(slots=True)
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
    """A finished run together with the configuration that produced it.

    `wall_s` is the time from the start of the `run`/`run_lanes` call until
    this lane finished.
    """

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
    wall_s: float = 0.0

    @property
    def strategy(self) -> str:
        return self.config.strategy

    @property
    def epsilon_n(self) -> float:
        return self.config.noise.epsilon_n


def _h_matrix(problem: Problem) -> np.ndarray:
    if problem.h_matrix is not None:
        return np.ascontiguousarray(problem.h_matrix, dtype=float)
    return np.eye(problem.n)


def _lane_config(configs) -> SolverConfig:
    """The config shared by all lanes, after validating each; lanes may differ only in noise."""
    if not configs:
        raise ConfigError("a run needs at least one lane")
    first = configs[0]
    for config in configs:
        config.validate()
        if replace(config, noise=first.noise) != first:
            raise ConfigError("the lanes of one run may differ only in their noise model")
    return first


def _init_lanes(problem: Problem, configs, seeds, x0=None) -> SolverState:
    config = _lane_config(configs)
    if len(seeds) != len(configs):
        raise ConfigError(f"{len(configs)} lanes but {len(seeds)} seeds")
    x = np.asarray(problem.x0 if x0 is None else x0, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"{problem.name}: x0 has shape {x.shape}, expected ({problem.n},)")
    B = len(configs)
    return SolverState(
        k=0, x=np.repeat(x[None], B, axis=0),
        streams=[c.noise.stream(int(seed)) for c, seed in zip(configs, seeds)],
        scale=np.array([[math.sqrt(c.noise.epsilon_n)] for c in configs]),
        h=_h_matrix(problem), b=[config.b0] * B, q=[config.q0] * B, lane=np.arange(B),
    )


def init_state(problem: Problem, config: SolverConfig, seed: int = 0, x0=None) -> SolverState:
    """The state of a one-lane run of `config` from x0 (default problem.x0)."""
    return _init_lanes(problem, [config], [seed], x0)


def _noisy_gradients(grad: np.ndarray, state: SolverState) -> np.ndarray:
    """grad + sqrt(eps) z per lane; a noise-free lane keeps grad's bits and draws nothing."""
    if state.noisy is None:
        return grad + state.scale * standard_normal_rows(state.streams, grad.shape[1])
    g = grad.copy()
    if len(state.noisy):
        rows = state.noisy
        z = standard_normal_rows([state.streams[i] for i in rows.tolist()], grad.shape[1])
        g[rows] = grad[rows] + state.scale[rows] * z
    return g


class _Lanes:
    """What is known of each lane of a run: records, reported errors and how it ended."""

    def __init__(self, B: int, start: float) -> None:
        self.records: list[list[IterationRecord]] = [[] for _ in range(B)]
        self.first: list[Optional[tuple[float, float]]] = [None] * B
        self.least = [(math.inf, (math.nan, math.nan))] * B
        self.status = [BUDGET_EXHAUSTED] * B
        self.error: list[Optional[Exception]] = [None] * B
        self.x_final: list[Optional[np.ndarray]] = [None] * B
        self.wall_s = [0.0] * B
        self.start = start

    def end(self, state: SolverState, rows: np.ndarray, status: str, error=None) -> np.ndarray:
        """End the lanes of the rows in the boolean mask `rows`; returns the mask of rows kept.

        `error` is one exception for all of them or a {row: exception} dict.
        """
        now = time.perf_counter() - self.start
        for i in np.flatnonzero(rows).tolist():
            lane = int(state.lane[i])
            self.status[lane] = status
            self.error[lane] = error.get(i) if isinstance(error, dict) else error
            self.x_final[lane] = state.x[i].copy()
            self.wall_s[lane] = now
        keep = ~rows
        state.keep(keep)
        return keep

    def observe(self, state: SolverState, feas: np.ndarray, stat: np.ndarray,
                config: SolverConfig) -> list[int]:
        """Note the errors at the current iterates for the protocol's reported
        measures; returns the rows whose iterate meets both tolerances."""
        done = []
        for row, (lane, f, s) in enumerate(zip(state.lane.tolist(), feas.tolist(), stat.tolist())):
            if f <= config.feas_tol:
                if self.first[lane] is None:
                    self.first[lane] = (f, s)
                if s <= config.stat_tol:
                    done.append(row)
            if f < self.least[lane][0]:
                self.least[lane] = (f, (f, s))
        return done


def _rows(ev: Evaluation, keep: np.ndarray) -> Evaluation:
    jac = ev.jac if ev.jac.ndim == 2 else ev.jac[keep]
    return Evaluation(ev.f[keep], ev.grad[keep], ev.c[keep], jac)


def _step_rows(step: Optional[tuple], keep: np.ndarray) -> Optional[tuple]:
    """Per-lane step factors and failures restricted to the rows in the mask `keep`."""
    if step is None or step[0].s.ndim == 1:  # none, or one factorization for all lanes
        return step
    factors, failed = step
    index = np.cumsum(keep) - 1
    return (StepFactors(*(None if a is None else a[keep] for a in factors)),
            {int(index[i]): e for i, e in failed.items() if keep[i]})


def _multiplier_factors(state: SolverState, J: np.ndarray):
    """(factors, rank-deficient rows, step) for the multiplier of J.

    `step` is the (factors, failures) pair of the step when it is already
    known, else None.  A J shared by all lanes is factored once, for the
    multiplier and the step, while its bytes stay the same.  For per-lane J
    with m = 1 the full SVD of the step gives the bits of the reduced one, so
    one SVD per lane serves both.
    """
    if J.ndim == 2:
        key = J.tobytes()
        if state.shared is None or state.shared[0] != key:
            state.shared = (key, factor_multiplier_lanes(J), factor_step_lanes(state.h, J))
        _, (factors, deficient), step = state.shared
        return factors, list(range(len(state.lane))) if deficient else [], step
    if J.shape[1] == 1:
        step = factor_step_lanes(state.h, J)
        f, failed = step
        deficient = [i for i, e in failed.items() if isinstance(e, RankDeficientJacobian)] if failed else []
        return (f.U, f.s, f.Vr.mT), deficient, step
    factors, deficient = factor_multiplier_lanes(J)
    return factors, deficient, None


def _observe(state: SolverState, problem: Problem, lanes: _Lanes):
    """Evaluate every lane and measure (||c||_inf, stationarity); ends the lanes that fail here.

    Returns (evaluation, ||c||_inf, stationarity, step factors or None).
    """
    ev, finite = evaluate_rows(problem, state.x)
    if finite is not True:
        keep = lanes.end(state, ~finite, FAILED,
                         EvaluationFailure(f"{problem.name}: non-finite oracle output"))
        ev = _rows(ev, keep)
    factors, deficient, step = _multiplier_factors(state, ev.jac)
    if deficient:
        rows = np.zeros(len(state.lane), dtype=bool)
        rows[deficient] = True
        keep = lanes.end(state, rows, FAILED, RankDeficientJacobian("sigma_min(J) <= rank tolerance"))
        ev = _rows(ev, keep)
        if ev.jac.ndim == 3:
            factors, _, step = _multiplier_factors(state, ev.jac)
    y = least_squares_multiplier(ev.jac, ev.grad, factors)
    stat = np.abs(ev.grad + mv(ev.jac.mT, y)).max(axis=1)
    return ev, np.abs(ev.c).max(axis=1), stat, step


def _advance(state: SolverState, problem: Problem, config: SolverConfig, ev: Evaluation,
             c_inf: np.ndarray, stat: np.ndarray, step: Optional[tuple], lanes: _Lanes) -> None:
    """Take one step on every lane from its evaluation; appends records, ends lanes that fail.

    `step` is the (factors, failures) pair from `_observe`, or None to factor here.
    """
    H = state.h
    J = ev.jac
    factors, failed = factor_step_lanes(H, J) if step is None else step
    if failed and J.ndim == 2:
        lanes.end(state, np.ones(len(state.lane), dtype=bool), FAILED, failed[0])
        return
    if failed:
        rows = np.zeros(len(state.lane), dtype=bool)
        rows[list(failed)] = True
        keep = lanes.end(state, rows, FAILED, failed)
        if not keep.any():
            return
        ev, c_inf, stat = _rows(ev, keep), c_inf[keep], stat[keep]
        J = ev.jac
        factors, _ = factor_step_lanes(H, J)
    c = ev.c
    c_l1 = np.abs(c).sum(axis=1)
    g = _noisy_gradients(ev.grad, state)
    p, y, u, v, sigma_min = solve_step(H, J, g, c, factors)

    # (beta, lo, hi) per lane, in the float arithmetic of a single run
    B = len(state.lane)
    c_l1_l = c_l1.tolist()
    if config.strategy == "fixed":
        beta = config.eta
        if config.alpha_rule != "backtrack":
            beta /= math.sqrt(max(config.max_iters, 1))
        beta_l, lo_l, hi_l = [beta] * B, [config.nu] * B, [config.nu + config.theta * beta] * B
    else:
        state.q = [math.sqrt(q * q + l1) for q, l1 in zip(state.q, c_l1_l)]
        lo_l = [config.nu / q for q in state.q]
        if config.strategy == "adaptive":
            state.b = [adaptive_update(b, uu) for b, uu in zip(state.b, dot(u, u).tolist())]
            beta_l = [config.eta / b for b in state.b]
            hi_l = [lo + min(config.theta / b, config.theta / q) for lo, b, q in zip(lo_l, state.b, state.q)]
        else:
            beta_l = [config.eta] * B
            hi_l = [lo + config.theta * config.eta for lo in lo_l]
    bad = {i: NonPositiveBeta(f"stepsizes underflowed: beta = {b!r}, alpha lower end = {lo!r}")
           if not (b > 0.0 and lo > 0.0) else
           StepsizeOverflow(f"stepsizes overflowed: beta = {b!r}, alpha upper end = {hi!r}")
           for i, (b, lo, hi) in enumerate(zip(beta_l, lo_l, hi_l))
           if not (0.0 < b < math.inf and 0.0 < lo <= hi < math.inf)}
    if bad:
        rows = np.zeros(B, dtype=bool)
        rows[list(bad)] = True
        keep = lanes.end(state, rows, FAILED, bad)
        if not keep.any():
            return
        c, c_inf, stat, p, y, u, v, sigma_min, beta_l, lo_l, hi_l, c_l1_l = _pick(
            keep, c, c_inf, stat, p, y, u, v, sigma_min, beta_l, lo_l, hi_l, c_l1_l)

    beta = np.array(beta_l)[:, None] if config.strategy == "adaptive" else beta_l[0]
    direction = beta * p if config.strategy == "ablation" else beta * u + v
    if config.strategy in ("linesearch", "ablation") or config.alpha_rule == "backtrack":
        alpha_l, hit_safeguard, n_backtracks, finite = backtrack_rows(
            lambda z: evaluate_c_rows(problem, z), state.x, direction, c_l1_l, hi_l, lo_l,
            config.xi, config.rho)
        if finite is not True:
            keep = lanes.end(state, ~np.array(finite), FAILED,
                             EvaluationFailure(f"{problem.name}: non-finite constraint value at a trial point"))
            if not keep.any():
                return
            c, c_inf, stat, y, u, v, sigma_min, direction = _pick(
                keep, c, c_inf, stat, y, u, v, sigma_min, direction)
            alpha_l, hit_safeguard, n_backtracks, beta_l, lo_l, hi_l, c_l1_l = _pick(
                keep, alpha_l, hit_safeguard, n_backtracks, beta_l, lo_l, hi_l, c_l1_l)
    else:
        alpha_l = lo_l if config.alpha_rule == "lower" else hi_l
        hit_safeguard, n_backtracks = [False] * len(alpha_l), [0] * len(alpha_l)

    B = len(state.lane)
    sigma_min = sigma_min.tolist() if np.ndim(sigma_min) else [float(sigma_min)] * B
    for row in zip(state.lane.tolist(), state.x, u, v, direction, y, alpha_l, beta_l, lo_l, hi_l,
                   n_backtracks, hit_safeguard, c_l1_l, np.sqrt(dot(c, c)).tolist(), c_inf.tolist(),
                   stat.tolist(), sigma_min):
        lanes.records[row[0]].append(IterationRecord(state.k, *row[1:]))
    state.x = state.x + np.array(alpha_l)[:, None] * direction
    state.k += 1


def _pick(keep: np.ndarray, *items):
    """Each per-lane array or list restricted to the rows in the boolean mask `keep`;
    floats and 0-d arrays (one value for every lane) pass through."""
    rows = keep.tolist()
    return [
        [v for v, k in zip(a, rows) if k] if isinstance(a, list) else a[keep] if np.ndim(a) else a
        for a in items
    ]


def step(state: SolverState, problem: Problem, config: SolverConfig) -> tuple[SolverState, IterationRecord]:
    """Advance a one-lane state by one iteration; returns the state and its record.

    Raises the lane's failure (EvaluationFailure, RankDeficientJacobian, ...)
    instead of ending it.
    """
    lanes = _Lanes(1, time.perf_counter())
    with np.errstate(over="ignore", invalid="ignore"):
        ev, c_inf, stat, factors = _observe(state, problem, lanes)
        if len(state.lane):
            _advance(state, problem, config, ev, c_inf, stat, factors, lanes)
    if lanes.error[0] is not None:
        raise lanes.error[0]
    return state, lanes.records[0][0]


def run_lanes(problem: Problem, configs, seeds, x0=None) -> list[Trace]:
    """Run one lane per (configs[i], seeds[i]) in lockstep; returns their traces in that order.

    The configs may differ only in their noise model.  Lane i's trace is
    bitwise the trace of `run(problem, configs[i], seeds[i], x0)` (its
    `wall_s` aside).
    """
    start = time.perf_counter()
    state = _init_lanes(problem, configs, seeds, x0)
    config = configs[0]
    lanes = _Lanes(len(configs), start)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iters + 1):
            ev, c_inf, stat, factors = _observe(state, problem, lanes)
            done = lanes.observe(state, c_inf, stat, config)
            if k == config.max_iters:
                lanes.end(state, np.ones(len(state.lane), dtype=bool), BUDGET_EXHAUSTED)
                break
            if done:
                rows = np.zeros(len(state.lane), dtype=bool)
                rows[done] = True
                keep = lanes.end(state, rows, CONVERGED)
                ev, c_inf, stat, factors = _rows(ev, keep), c_inf[keep], stat[keep], _step_rows(factors, keep)
            if not len(state.lane):
                break
            _advance(state, problem, config, ev, c_inf, stat, factors, lanes)
            if not len(state.lane):
                break

    traces = []
    for i, (lane_config, seed) in enumerate(zip(configs, seeds)):
        first, least = lanes.first[i], lanes.least[i][1]
        feas_error, stat_error = first if first is not None else least
        error = lanes.error[i]
        traces.append(Trace(
            problem=problem.name,
            config=lane_config,
            status=lanes.status[i],
            fail_reason=None if error is None else _FAIL_TOKENS[type(error)],
            records=lanes.records[i],
            iterations=len(lanes.records[i]),
            feas_error=feas_error,
            stat_error=stat_error,
            x_final=lanes.x_final[i],
            h_matrix=state.h,
            seed=int(seed),
            wall_s=lanes.wall_s[i],
        ))
    return traces


def run(problem: Problem, config: SolverConfig, seed: int = 0, x0=None) -> Trace:
    """Iterate until converged, out of budget, or failed: `run_lanes` with one lane.

    Reported errors follow the experiment protocol: the measures at the first
    sufficiently feasible iterate when one exists, otherwise at the least
    infeasible iterate visited (terminal point included).
    """
    return run_lanes(problem, [config], [seed], x0)[0]
