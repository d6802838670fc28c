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
their seeds and in the `noise` and `noise_seed` of their configs.  Every
operation on the stack gives each lane the bits it gets alone (see
`linalg`), and each lane keeps its own noise stream, accumulators,
termination, failure token and records, so lane i's trace is bitwise the
trace of `run(problem, configs[i], seeds[i])`.  `run`
is the B = 1 case of the same code.  One `SolverState` holds a run's lanes,
and `step` takes one lockstep iteration of them.  A lane leaves the stack
when it finishes; a failure ends only its own lane.

Every layer reports the lanes that fail as a {row: exception} map.  Every
lane leaves through `SolverState.end`, which takes such a map, ends those
lanes and restricts every per-lane value, the cached factors included, to the
rows left; nothing is factored again.  Within an iteration a lane ends when (1)
its oracle output is not finite, (2) its J fails the rank test of the
multiplier, (3) its iterate meets both tolerances or the budget is spent,
(4) its step factorization fails, (5) a stepsize under- or overflows, or (6)
a trial point of the line search has a non-finite c.  So a lane that has
converged ends converged even where its step cannot be taken.

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
line-search round.  The step computes the split step (u, v) and the
least-squares multiplier of the stationarity test; p = u + v only for
ablation and for records, and the SQP multiplier y and sigma_min(J) only for
records.  The gradient noise is drawn once per block of up to
NOISE_BLOCK_ITERS iterations, never past the budget: each noisy lane makes
one `random` call for the block and Box-Muller runs once on the noisy rows,
with the bits of one draw per iteration.  A noise-free lane's block rows
hold -0.0, IEEE-754's additive identity, so every lane takes the same
`grad + z` and a noise-free one keeps grad's bits without touching its
stream.  A lane that ends early leaves its stream drawn ahead.  One `abs`
of c gives both ||c||_1 and ||c||_inf.

Records are kept only where they are read: `run_lanes(..., records=True)`,
the default, writes each running lane's record row into the record store
once per iteration (see `_record`), and `records=False`, which the harness
passes unless a plan is audited, builds no record row and allocates no
block; a trace's iteration count comes from its lane, not from its records.

H is built once per run.  J is a (B, m, n) stack, one matrix per lane;
`linalg.factor_step` factors it for the multiplier and the step before the
convergence test, and the state keeps those factors until the stack's bytes
change, so a constant J (linear constraints) is factored once per lane per
run; from the second iteration on, each lane's LU of Z'HZ is reused where
`linalg.factor_reduced_lu` keeps it (see "Reused LU" there).
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
    check_real,
)
from .linalg import Factors, dot, factor_step, least_squares_multiplier, mv, solve_step, sqp_multiplier
from .problems import Problem, evaluate, evaluate_c, standard_normal_vector
from .stepsize import adaptive_update, backtrack_rows

# The one-point search.  The iteration calls `backtrack_rows`; this stays
# bound only because the benchmark's tracer looks it up by name (ROADMAP item 1).
from .stepsize import safeguarded_backtrack  # noqa: F401

STRATEGIES = ("fixed", "adaptive", "linesearch", "ablation")

NOISE_BLOCK_ITERS = 64
"""Iterations of gradient noise a lane draws at once (see `_noisy_gradients`).

Per-iteration cost of the draw, median of 10 interleaved rounds on a shared
2-core Xeon (AVX-512, 2 MB L2 per core), numpy 2.4: at K = 1, 8, 32, 64, 128
iterations per block, B = 2 lanes at n = 4 take 32.3, 7.1, 4.3, 3.8, 3.6 us,
B = 40 at n = 4 take 120.5, 25.3, 14.2, 12.1, 11.7 us and B = 1 at n = 200
take 35.3, 13.6, 10.5, 10.6, 11.6 us.  K = 1 is one Box-Muller call per
iteration.
"""

NOISE_BLOCK_FLOATS = 1 << 16
"""The most floats one noise block of the stack holds, unless one iteration needs more.

At n = 200 the cap does not buy speed, where log, sin and cos dominate: on
the host above, caps of 2^16, 2^18 and 2^20 floats gave 434, 458 and 463 us
per iteration for B = 40 and 1950, 1757 and 2028 us for B = 160 (medians of
10 interleaved rounds, within the host's spread), so the smallest is taken:
a block and its Box-Muller temporaries stay within a few MB.
"""

RECORD_BLOCK_ITERS = 128
"""Iterations of records one block of a run's record store holds (see `_record`).

The store grows one block at a time, of RECORD_BLOCK_ITERS iterations (fewer
where the budget ends sooner) x the lanes running x 4n + m + 11 floats, so a
lane that ends early leaves at most one block's rows unused and a huge budget
allocates nothing up front.
"""

RECORD_SCALARS = ("alpha", "beta", "alpha_lo", "alpha_hi", "n_backtracks", "hit_safeguard",
                  "c_l1", "c_l2", "c_inf", "stat_inf", "sigma_min")
"""The scalar fields of `IterationRecord`, in the order of the last columns of a record table."""

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


_FLOAT_FIELDS = ("feas_tol", "stat_tol", "eta", "nu", "theta", "xi", "rho", "q0", "b0", "noise")


@dataclass(frozen=True)
class SolverConfig:
    """Every setting of a run, checked when it is built: an invalid value raises ConfigError.

    `noise` is the gradient-noise level eps: the solver steps with g =
    grad f(x) + sqrt(eps) z, z standard normal, and eps = 0 gives the true
    gradient.  A run's noise stream is keyed by `noise_seed` and the run's
    seed (see `stream`).
    """

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
    noise: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        check_count("max_iters", self.max_iters, 0)
        check_count("noise_seed", self.noise_seed, 0)
        for name in _FLOAT_FIELDS:
            check_real(name, getattr(self, name))
        if self.noise < 0:
            raise ConfigError(f"the noise level must be nonnegative, got {self.noise!r}")
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

    def stream(self, seed: int) -> np.random.Generator:
        """The gradient-noise stream of the run with `seed`: PCG64 seeded by (noise_seed, seed)."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.noise_seed, seed))))

    @property
    def searches(self) -> bool:
        """Whether alpha comes from the safeguarded backtracking search."""
        return self.strategy in ("linesearch", "ablation") or self.alpha_rule == "backtrack"


@dataclass
class SolverState:
    """Every lane of one run: the rows still running and what is known of each lane.

    Row i of `x` (B, n), `scale` (B, 1) and `noise` (B, K, n) and entry i of
    `streams`, `b` and `q` belong to the lane numbered `lane[i]` in its run;
    a row leaves when its lane ends.  `scale` is sqrt(noise level).
    `noise` is the current block of gradient noise, sqrt(noise level) z for
    K iterations (-0.0 rows for noise-free lanes); its rows from `noise_at`
    on are unspent.  `b` and `q` are the Adagrad-Norm accumulators, started
    at b0 and q0.  `h` is the model matrix H.  `factors` are the
    `linalg.Factors` of the last J stack factored, restricted to the rows left.

    The record store is `block`, the current (lanes, iterations, 4n + m + 11)
    block of records, whose row `block_rows[i]` belongs to row i of `x` (see
    `_record`); a state that is not `recording` never writes one.  Entry j of
    `records`, `iterations`, `first`, `least`, `status`, `error`, `x_final`
    and `wall_s` belong to lane j, whether it still runs or not: its records,
    as its rows of the blocks it ran in (views, cut to its iteration count
    when it ends), its iteration count once it ends, the errors at its first
    sufficiently feasible and at its least infeasible iterate, how it ended,
    and its final iterate and time since `start`.
    """

    k: int
    x: np.ndarray
    streams: list
    scale: np.ndarray
    h: np.ndarray
    b: list[float]
    q: list[float]
    lane: np.ndarray
    start: float
    noise: np.ndarray
    noise_at: int = 0
    factors: Optional[Factors] = None
    recording: bool = True
    block: np.ndarray = field(init=False)
    block_rows: np.ndarray = field(init=False)
    records: list[list[np.ndarray]] = field(init=False)
    iterations: list[int] = field(init=False)
    first: list[Optional[tuple[float, float]]] = field(init=False)
    least: list[tuple[float, tuple[float, float]]] = field(init=False)
    status: list[str] = field(init=False)
    error: list[Optional[Exception]] = field(init=False)
    x_final: list[Optional[np.ndarray]] = field(init=False)
    wall_s: list[float] = field(init=False)

    def __post_init__(self) -> None:
        B = len(self.lane)
        self.block, self.block_rows = np.empty((B, 0, 0)), np.arange(B)
        self.records = [[] for _ in range(B)]
        self.iterations = [0] * B
        self.first, self.error, self.x_final = [None] * B, [None] * B, [None] * B
        self.least = [(math.inf, (math.nan, math.nan))] * B
        self.status, self.wall_s = [BUDGET_EXHAUSTED] * B, [0.0] * B

    def end(self, ended: dict, status: str, *values) -> tuple:
        """End the lane of each row in `ended`, a {row: exception or None} map, with `status`.

        Returns `values` restricted to the rows left (see `_restrict`); every
        value passed must have one row per row of `x`.
        """
        if not ended:
            return values
        now = time.perf_counter() - self.start
        for row, error in ended.items():
            lane = int(self.lane[row])
            self.status[lane], self.error[lane] = status, error
            self.x_final[lane] = self.x[row].copy()
            self.wall_s[lane], self.iterations[lane] = now, self.k
            blocks = self.records[lane]
            if blocks:  # the lane has self.k records, the last of them in its last block
                blocks[-1] = blocks[-1][:self.k - RECORD_BLOCK_ITERS * (len(blocks) - 1)]
        keep = np.ones(len(self.lane), dtype=bool)
        keep[list(ended)] = False
        (self.x, self.scale, self.lane, self.streams, self.b, self.q, self.factors, self.noise,
         self.block_rows) = _restrict((self.x, self.scale, self.lane, self.streams, self.b, self.q,
                                       self.factors, self.noise, self.block_rows), keep)
        return _restrict(values, keep)

    def observe(self, feas: np.ndarray, stat: np.ndarray, config: SolverConfig) -> dict:
        """Note the errors at the current iterates for the protocol's reported
        measures; returns {row: None} for the rows whose iterate meets both tolerances."""
        done = {}
        for row, (lane, f, s) in enumerate(zip(self.lane.tolist(), feas.tolist(), stat.tolist())):
            if f <= config.feas_tol:
                if self.first[lane] is None:
                    self.first[lane] = (f, s)
                if s <= config.stat_tol:
                    done[row] = None
            if f < self.least[lane][0]:
                self.least[lane] = (f, (f, s))
        return done


@dataclass(slots=True)
class IterationRecord:
    """Per-iteration instrumentation, all quantities at the pre-step iterate x.

    `d` is the direction actually taken: beta * u + v, or beta * p for the
    ablation strategy.  Records are built only on access to `Trace.records`,
    from a row of the trace's record table: the arrays are views of that row.
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


@dataclass(frozen=True)
class Trace:
    """A finished run together with the configuration that produced it.

    `wall_s` is the time from the start of the `run`/`run_lanes` call until
    this lane finished.  `columns` holds the lane's records as consecutive
    row blocks, views of its run's record store (which they keep alive), one
    per block of iterations it ran in: row k is record k's x, u, v, d (n
    each), y (m) and RECORD_SCALARS (n_backtracks and hit_safeguard as 0/1
    floats), 4n + m + 11 float64 columns (see `table` and `record_fields`).
    It is None for a run without records (`run_lanes(..., records=False)`),
    whose trace has no `table` and no `records`.
    """

    problem: str
    config: SolverConfig
    status: str
    fail_reason: Optional[str]
    columns: Optional[tuple[np.ndarray, ...]]
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

    def table(self) -> np.ndarray:
        """The lane's records as one (iterations, 4n + m + 11) table: a view of its one
        block, or a copy joining its blocks.  A trace of no iterations has no table and
        raises ValueError; one run without records raises ConfigError."""
        if self.columns is None:
            raise ConfigError(f"this {self.problem!r} trace was run without records")
        return self.columns[0] if len(self.columns) == 1 else np.concatenate(self.columns)

    @property
    def records(self) -> list[IterationRecord]:
        """One `IterationRecord` per iteration, built from `columns` on each access: Python
        scalars, and (n,)/(m,) views of the record table for the vectors.  ConfigError
        for a trace run without records."""
        return _records(self.table(), len(self.x_final)) if self.columns != () else []


def record_fields(table: np.ndarray, n: int) -> list[np.ndarray]:
    """[x, u, v, d, y, scalars] of a record table (iterations, 4n + m + 11), as views:
    x, u, v, d (iterations, n), y (iterations, m) and scalars (iterations, 11), whose
    columns are RECORD_SCALARS."""
    return np.split(table, (n, 2 * n, 3 * n, 4 * n, table.shape[1] - len(RECORD_SCALARS)), axis=1)


def _records(table: np.ndarray, n: int) -> list[IterationRecord]:
    """The records of the rows of a record table, row k as iteration k."""
    x, u, v, d, y, scalars = record_fields(table, n)
    return [IterationRecord(k, x[k], u[k], v[k], d[k], y[k], alpha, beta, lo, hi, int(backtracks),
                            bool(hit), c_l1, c_l2, c_inf, stat, sigma_min)
            for k, (alpha, beta, lo, hi, backtracks, hit, c_l1, c_l2, c_inf, stat, sigma_min)
            in enumerate(scalars.tolist())]


def _h_matrix(problem: Problem) -> np.ndarray:
    if problem.h_matrix is not None:
        return np.ascontiguousarray(problem.h_matrix, dtype=float)
    return np.eye(problem.n)


def _lane_config(configs) -> SolverConfig:
    """The config shared by all lanes; lanes may differ only in `noise` and `noise_seed`."""
    if not configs:
        raise ConfigError("a run needs at least one lane")
    first = configs[0]
    for config in configs:
        if replace(config, noise=first.noise, noise_seed=first.noise_seed) != first:
            raise ConfigError("the lanes of one run may differ only in noise and noise_seed")
    return first


def _init_lanes(problem: Problem, configs, seeds, x0=None, records: bool = True) -> SolverState:
    start = time.perf_counter()
    config = _lane_config(configs)
    if len(seeds) != len(configs):
        raise ConfigError(f"{len(configs)} lanes but {len(seeds)} seeds")
    for seed in seeds:
        check_count("seed", seed, 0)
    x = np.asarray(problem.x0 if x0 is None else x0, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"{problem.name}: x0 has shape {x.shape}, expected ({problem.n},)")
    B = len(configs)
    return SolverState(
        k=0, x=np.repeat(x[None], B, axis=0),
        streams=[c.stream(int(seed)) for c, seed in zip(configs, seeds)],
        scale=np.array([[math.sqrt(c.noise)] for c in configs]),
        h=_h_matrix(problem), b=[config.b0] * B, q=[config.q0] * B, lane=np.arange(B), start=start,
        noise=np.empty((B, 0, problem.n)), recording=records,
    )


def _noise_block_iters(lanes: int, n: int, remaining: int) -> int:
    """How many iterations of noise a block holds: at most NOISE_BLOCK_ITERS, never past
    the `remaining` budget, and at most NOISE_BLOCK_FLOATS floats unless one iteration
    alone needs more."""
    return max(1, min(NOISE_BLOCK_ITERS, remaining, NOISE_BLOCK_FLOATS // (lanes * n)))


def _noisy_gradients(grad: np.ndarray, state: SolverState, max_iters: int) -> np.ndarray:
    """grad + sqrt(eps) z per lane, z from the state's noise block, which is drawn again
    once it is spent.  A noise-free lane's rows of the block are -0.0, so it keeps grad's
    bits, and its stream is never drawn."""
    if state.noise_at == state.noise.shape[1]:
        B, n = grad.shape
        k = _noise_block_iters(B, n, max_iters - state.k)
        rows = np.flatnonzero(state.scale[:, 0] > 0.0)
        state.noise = np.full((B, k, n), -0.0)
        if len(rows):
            z = standard_normal_vector([state.streams[i] for i in rows.tolist()], n, k)
            state.noise[rows] = state.scale[rows, :, None] * z
        state.noise_at = 0
    z = state.noise[:, state.noise_at]
    state.noise_at += 1
    return grad + z


def _restrict(value, keep: np.ndarray):
    """`value` restricted to the rows in the boolean mask `keep`: arrays and lists row
    by row, tuples item by item, {row: ...} maps re-keyed to the rows left; None passes."""
    if value is None:
        return None
    if isinstance(value, dict):
        new_row = np.cumsum(keep) - 1
        return {int(new_row[i]): e for i, e in value.items() if keep[i]}
    if isinstance(value, list):
        return [v for v, k in zip(value, keep.tolist()) if k]
    if isinstance(value, tuple):
        items = [_restrict(v, keep) for v in value]
        return value._make(items) if hasattr(value, "_make") else tuple(items)
    return value[keep]


def _record(state: SolverState, vectors: tuple, scalars: tuple, max_iters: int) -> None:
    """Write iteration k's records, one row per lane running, into the record store: the
    (lanes, width) `vectors` x, u, v, d, y and the lists or (lanes,) arrays of
    RECORD_SCALARS, with one `concatenate`, in place while no lane has left the current
    block.  At the first iteration of a block, first start a block of at most
    RECORD_BLOCK_ITERS iterations, never past the budget, and give each lane its row."""
    j = state.k % RECORD_BLOCK_ITERS
    lanes = len(vectors[0])
    if j == 0:
        width = sum(a.shape[1] for a in vectors) + len(scalars)
        state.block = np.empty((lanes, min(RECORD_BLOCK_ITERS, max_iters - state.k), width))
        state.block_rows = np.arange(lanes)
        for lane, block in zip(state.lane.tolist(), state.block):
            state.records[lane].append(block)
    rows = (*vectors, np.array(scalars, dtype=float).T)
    if len(state.block) == lanes:
        np.concatenate(rows, axis=1, out=state.block[:, j])
    else:
        state.block[state.block_rows, j] = np.concatenate(rows, axis=1)


def _observe(state: SolverState, problem: Problem):
    """Evaluate every lane and measure (||c||_1, ||c||_inf, stationarity); ends the lanes that fail here.

    Returns (grad, c, ||c||_1, ||c||_inf, stationarity) of the lanes left, or None
    when no lane is.  `state.factors` become the factors of the J stack
    (`linalg.factor_step`, which keeps the cached ones while J's bytes stay).
    """
    ev, failed = evaluate(problem, state.x)
    grad, c, J = state.end(failed, FAILED, ev.grad, ev.c, ev.jac)
    if not len(c):
        return None
    state.factors = factor_step(state.h, J, state.factors)
    grad, c = state.end(state.factors.mult_failed, FAILED, grad, c)
    if not len(c):
        return None
    y = least_squares_multiplier(grad, state.factors)
    stat = np.abs(grad + mv(state.factors.J.mT, y)).max(axis=1)
    c_abs = np.abs(c)
    return grad, c, c_abs.sum(axis=1), c_abs.max(axis=1), stat


def _advance(state: SolverState, problem: Problem, config: SolverConfig, grad: np.ndarray, c: np.ndarray,
             c_l1: np.ndarray, c_inf: np.ndarray, stat: np.ndarray) -> None:
    """Take one step on every lane from `_observe`'s values; writes their records if the
    state is recording, ends lanes that fail."""
    grad, c, c_l1, c_inf, stat = state.end(state.factors.step_failed, FAILED, grad, c, c_l1, c_inf, stat)
    if not len(c):
        return
    c_l1 = c_l1.tolist()
    g = _noisy_gradients(grad, state, config.max_iters)
    u, v = solve_step(state.h, g, c, state.factors)
    p = u + v if config.strategy == "ablation" or state.recording else None
    y = sqp_multiplier(state.h, g, p, state.factors) if state.recording else None
    B = len(c)

    # (beta, lo, hi) per lane, in the float arithmetic of a single run
    if config.strategy == "fixed":
        beta = config.eta
        if config.alpha_rule != "backtrack":
            beta /= math.sqrt(max(config.max_iters, 1))
        beta_l, lo_l, hi_l = [beta] * B, [config.nu] * B, [config.nu + config.theta * beta] * B
    else:
        state.q = [math.sqrt(q * q + l1) for q, l1 in zip(state.q, c_l1)]
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
    c, c_inf, stat, p, y, u, v, beta_l, lo_l, hi_l, c_l1 = state.end(
        bad, FAILED, c, c_inf, stat, p, y, u, v, beta_l, lo_l, hi_l, c_l1)
    if not len(c):
        return

    beta = np.array(beta_l)[:, None] if config.strategy == "adaptive" else beta_l[0]
    direction = beta * p if config.strategy == "ablation" else beta * u + v
    if config.searches:
        alpha_l, hit_safeguard, n_backtracks, failed = backtrack_rows(
            lambda z: evaluate_c(problem, z), state.x, direction, c_l1, hi_l, lo_l,
            config.xi, config.rho)
        (c, c_inf, stat, y, u, v, direction, alpha_l, hit_safeguard, n_backtracks,
         beta_l, lo_l, hi_l, c_l1) = state.end(
            failed, FAILED, c, c_inf, stat, y, u, v, direction, alpha_l, hit_safeguard,
            n_backtracks, beta_l, lo_l, hi_l, c_l1)
        if not len(c):
            return
    else:
        alpha_l = lo_l if config.alpha_rule == "lower" else hi_l
        hit_safeguard, n_backtracks = [False] * len(c), [0] * len(c)

    if state.recording:
        _record(state, (state.x, u, v, direction, y),
                (alpha_l, beta_l, lo_l, hi_l, n_backtracks, hit_safeguard, c_l1, np.sqrt(dot(c, c)), c_inf, stat,
                 state.factors.sigma_min), config.max_iters)
    state.x = state.x + np.array(alpha_l)[:, None] * direction
    state.k += 1


def step(state: SolverState, problem: Problem, config: SolverConfig) -> bool:
    """One lockstep iteration of the lanes still running; returns whether any lane runs on.

    Observes every lane, ends those that meet both tolerances or, at k =
    max_iters, every lane left, and advances the rest by one step.  It runs
    under `run_lanes`' np.errstate, which turns overflow and invalid-value
    warnings off: a lane whose values stop being finite ends with its
    failure token instead.  `run_lanes` is its only caller; the function
    keeps its name because the benchmark's tracer times the iteration under
    `tssqp.solver.step`.
    """
    observed = _observe(state, problem)
    if observed is None:
        return False
    done = state.observe(observed[3], observed[4], config)
    if state.k == config.max_iters:
        state.end(dict.fromkeys(range(len(state.lane))), BUDGET_EXHAUSTED)
        return False
    observed = state.end(done, CONVERGED, *observed)
    if len(state.lane):
        _advance(state, problem, config, *observed)
    return len(state.lane) > 0


def run_lanes(problem: Problem, configs, seeds, x0=None, records: bool = True) -> list[Trace]:
    """Run one lane per (configs[i], seeds[i]) in lockstep; returns their traces in that order.

    The configs may differ only in `noise` and `noise_seed`.  Lane i's trace is
    bitwise the trace of `run(problem, configs[i], seeds[i], x0)` (its
    `wall_s` aside).  With `records=False` the run keeps no records: every
    trace has `columns` None and the same fields otherwise.
    """
    state = _init_lanes(problem, configs, seeds, x0, records)
    with np.errstate(over="ignore", invalid="ignore"):
        while step(state, problem, configs[0]):
            pass

    traces = []
    for i, (lane_config, seed) in enumerate(zip(configs, seeds)):
        first, least = state.first[i], state.least[i][1]
        feas_error, stat_error = first if first is not None else least
        error = state.error[i]
        traces.append(Trace(
            problem=problem.name,
            config=lane_config,
            status=state.status[i],
            fail_reason=None if error is None else _FAIL_TOKENS[type(error)],
            columns=tuple(state.records[i]) if records else None,
            iterations=state.iterations[i],
            feas_error=feas_error,
            stat_error=stat_error,
            x_final=state.x_final[i],
            h_matrix=state.h,
            seed=int(seed),
            wall_s=state.wall_s[i],
        ))
    return traces


def run(problem: Problem, config: SolverConfig, seed: int = 0, x0=None) -> Trace:
    """Iterate until converged, out of budget, or failed: `run_lanes` with one lane.

    Reported errors follow the experiment protocol: the measures at the first
    sufficiently feasible iterate when one exists, otherwise at the least
    infeasible iterate visited (terminal point included).
    """
    return run_lanes(problem, [config], [seed], x0)[0]
