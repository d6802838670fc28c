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

Every layer reports the lanes that fail as a {row: exception} map, and one
iteration's per-lane values travel in one `Iteration`.  Every lane leaves
through `SolverState.end`, which takes a {row: exception or status} map, ends
those lanes and restricts the state's per-lane values, the cached factors
included, and the `Iteration` to the rows left; nothing is factored again.
Within an iteration a lane ends when (1) its oracle output is not finite, (2)
its J fails the rank test of the multiplier, (3) the budget is spent, its
iterate meets both tolerances, or its step factorization fails (a converged
lane ends converged), (4) a stepsize under- or overflows, or (5) a trial
point of the line search has a non-finite c.

Stepsizes
---------
Every strategy moves by x <- x + alpha d with d = beta u + v (ablation:
d = beta (u + v), standing in for single-stepsize stochastic SQP) and alpha in
[lo, hi].  Each iteration computes (beta, lo, hi) per lane by `stepsize_rule`:

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
least-squares multiplier of the stationarity test, and sigma_min(J) is read
only for records.  The gradient noise is drawn once per block of up to
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

H is the problem's `h_matrix`, which the kernels take as it is, None being
the identity (see `linalg`).  J is a (B, m, n) stack, one matrix per lane;
`linalg.factor_step` factors it for the multiplier and the step before the
convergence test, and the state keeps those factors until the stack's
bytes change, so a constant J (linear constraints) is factored once per
lane per run; from the second iteration on, each lane's LU of Z'HZ is
reused where `linalg.factor_reduced_lu` keeps it (see "Reused LU" there).
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
from .linalg import Factors, dot, factor_step, least_squares_multiplier, mv, solve_step
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
where the budget ends sooner) x the lanes running x 4n + 11 floats, so a
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
    seed (see `stream`).  The numeric fields are stored as Python floats and
    ints, whatever real or integer type they were given as.
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
        # a numpy scalar is kept as the Python number it equals, so equal configs compute alike
        for name in ("max_iters", "noise_seed"):
            check_count(name, getattr(self, name), 0)
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in _FLOAT_FIELDS:
            check_real(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
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


@dataclass(slots=True)
class Iteration:
    """One iteration's per-lane values, entry i of each for row i of the state's `x`, assigned
    in place by `step` and `_advance` (None until computed); `SolverState.end` restricts
    them all to the rows left."""

    grad: np.ndarray
    c: np.ndarray
    jac: np.ndarray
    c_l1: Optional[list[float]] = None
    c_inf: Optional[np.ndarray] = None
    stat: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    beta: Optional[list[float]] = None
    lo: Optional[list[float]] = None
    hi: Optional[list[float]] = None
    direction: Optional[np.ndarray] = None
    alpha: Optional[list[float]] = None
    hit: Optional[list[bool]] = None
    count: Optional[list[int]] = None


@dataclass
class SolverState:
    """Every lane of one run: the rows still running and what is known of each lane.

    Row i of `x` (B, n), `scale` (B, 1) and `noise` (B, K, n) and entry i of
    `streams`, `b` and `q` belong to the lane numbered `lane[i]` in its run;
    a row leaves when its lane ends.  `scale` is sqrt(noise level).
    `noise` is the current block of gradient noise, sqrt(noise level) z for
    K iterations (-0.0 rows for noise-free lanes); its rows from `noise_at`
    on are unspent.  `b` and `q` are the Adagrad-Norm accumulators, started
    at b0 and q0.  `factors` are the `linalg.Factors` of the last J stack
    factored, restricted to the rows left.

    The record store is `block`, the current (lanes, iterations, 4n + 11)
    block of records, whose row `block_rows[i]` belongs to row i of `x` (see
    `_record`); a state that is not `recording` never writes one.  Entry j of
    `configs`, `seeds`, `records`, `first`, `least` and `traces` belong to lane
    j, whether it still runs or not: its config and seed, its rows of the
    blocks it ran in (views), the (feasibility, stationarity) errors at its
    first sufficiently feasible and at its least infeasible iterate, and its
    `Trace`, which `end` builds when the lane ends (None until then).
    """

    k: int
    x: np.ndarray
    streams: list
    scale: np.ndarray
    b: list[float]
    q: list[float]
    lane: np.ndarray
    start: float
    noise: np.ndarray
    problem: Problem
    configs: list[SolverConfig]
    seeds: list[int]
    noise_at: int = 0
    factors: Optional[Factors] = None
    recording: bool = True
    block: np.ndarray = field(init=False)
    block_rows: np.ndarray = field(init=False)
    records: list[list[np.ndarray]] = field(init=False)
    first: list[Optional[tuple[float, float]]] = field(init=False)
    least: list[tuple[float, float]] = field(init=False)
    traces: list[Optional[Trace]] = field(init=False)

    def __post_init__(self) -> None:
        B = len(self.lane)
        self.block, self.block_rows = np.empty((B, 0, 0)), np.arange(B)
        self.records = [[] for _ in range(B)]
        self.first, self.traces = [None] * B, [None] * B
        self.least = [(math.nan, math.nan)] * B

    def end(self, ended: dict, it: Optional[Iteration] = None) -> bool:
        """End the lane of each row in `ended` and build its `Trace`; returns whether any lane runs on.

        `ended` maps a row to an exception, which ends the lane FAILED with
        the exception's failure token, or to a status (CONVERGED,
        BUDGET_EXHAUSTED).  The state's per-lane values and, in place, every
        field of the iteration `it` are restricted to the rows left (see
        `_restrict`).
        """
        if not ended:
            return len(self.lane) > 0
        now = time.perf_counter() - self.start
        width = 4 * self.problem.n + len(RECORD_SCALARS)
        for row, outcome in ended.items():
            lane = int(self.lane[row])
            failed = isinstance(outcome, Exception)
            # the lane's self.k records are the first rows of its blocks; one of no iteration has none
            table = np.concatenate(self.records[lane] or [np.empty((0, width))])[:self.k] if self.recording else None
            feas_error, stat_error = self.first[lane] or self.least[lane]
            self.traces[lane] = Trace(
                problem=self.problem.name, config=self.configs[lane], status=FAILED if failed else outcome,
                fail_reason=_FAIL_TOKENS[type(outcome)] if failed else None, table=table,
                iterations=self.k, feas_error=feas_error, stat_error=stat_error, x_final=self.x[row].copy(),
                seed=self.seeds[lane], wall_s=now)
        keep = np.ones(len(self.lane), dtype=bool)
        keep[list(ended)] = False
        (self.x, self.scale, self.lane, self.streams, self.b, self.q, self.factors, self.noise,
         self.block_rows) = _restrict((self.x, self.scale, self.lane, self.streams, self.b, self.q,
                                       self.factors, self.noise, self.block_rows), keep)
        if it is not None:
            for name in it.__slots__:
                setattr(it, name, _restrict(getattr(it, name), keep))
        return len(self.lane) > 0

    def observe(self, feas: np.ndarray, stat: np.ndarray) -> dict:
        """Note the errors at the current iterates for the protocol's reported
        measures; returns {row: CONVERGED} for the rows whose iterate meets both tolerances."""
        config, done = self.configs[0], {}
        for row, (lane, f, s) in enumerate(zip(self.lane.tolist(), feas.tolist(), stat.tolist())):
            if f <= config.feas_tol:
                if self.first[lane] is None:
                    self.first[lane] = (f, s)
                if s <= config.stat_tol:
                    done[row] = CONVERGED
            if not f >= self.least[lane][0]:  # the least is NaN until the first iterate
                self.least[lane] = (f, s)
        return done


@dataclass(slots=True)
class IterationRecord:
    """Per-iteration instrumentation, all quantities at the pre-step iterate x.

    `d` is the direction actually taken: beta * u + v, or beta * (u + v) for
    the ablation strategy.  Records are built only on access to `Trace.records`,
    from a row of `Trace.table`: the arrays are views of that row.
    """

    k: int
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
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
    this lane finished.  `table` holds the lane's records, one row per
    iteration, joined from its run's record store when the lane ended: row k
    is record k's x, u, v, d (n each) and RECORD_SCALARS (n_backtracks and
    hit_safeguard as 0/1 floats), 4n + 11 float64 columns (see
    `record_fields`).  It is None for a run without records
    (`run_lanes(..., records=False)`), whose trace has no `records`.
    """

    problem: str
    config: SolverConfig
    status: str
    fail_reason: Optional[str]
    table: Optional[np.ndarray]
    iterations: int
    feas_error: float
    stat_error: float
    x_final: np.ndarray
    seed: int
    wall_s: float = 0.0

    @property
    def strategy(self) -> str:
        return self.config.strategy

    @property
    def records(self) -> list[IterationRecord]:
        """One `IterationRecord` per iteration, built from `table` on each access: Python
        scalars, and (n,)/(m,) views of the table for the vectors.  ConfigError for a
        trace run without records."""
        if self.table is None:
            raise ConfigError(f"this {self.problem!r} trace was run without records")
        return _records(self.table, len(self.x_final))


def record_fields(table: np.ndarray, n: int) -> list[np.ndarray]:
    """[x, u, v, d, scalars] of a record table (iterations, 4n + 11), as views: x, u, v,
    d (iterations, n) and scalars (iterations, 11), whose columns are RECORD_SCALARS."""
    return np.split(table, (n, 2 * n, 3 * n, 4 * n), axis=1)


def _records(table: np.ndarray, n: int) -> list[IterationRecord]:
    """The records of the rows of a record table, row k as iteration k."""
    x, u, v, d, scalars = record_fields(table, n)
    return [IterationRecord(k, x[k], u[k], v[k], d[k], alpha, beta, lo, hi, int(backtracks),
                            bool(hit), c_l1, c_l2, c_inf, stat, sigma_min)
            for k, (alpha, beta, lo, hi, backtracks, hit, c_l1, c_l2, c_inf, stat, sigma_min)
            in enumerate(scalars.tolist())]


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
        b=[config.b0] * B, q=[config.q0] * B, lane=np.arange(B), start=start,
        noise=np.empty((B, 0, problem.n)), problem=problem, configs=list(configs),
        seeds=[int(seed) for seed in seeds], recording=records,
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


def _record(state: SolverState, it: Iteration, max_iters: int) -> None:
    """Write iteration k's records, one row per lane running, into the record store: the
    (lanes, n) vectors x, u, v, d and the lists or (lanes,) arrays of RECORD_SCALARS,
    with one `concatenate`, in place while no lane has left the current block.  At the
    first iteration of a block, first start a block of at most RECORD_BLOCK_ITERS
    iterations, never past the budget, and give each lane its row."""
    j = state.k % RECORD_BLOCK_ITERS
    lanes = len(state.x)
    if j == 0:
        width = 4 * state.problem.n + len(RECORD_SCALARS)
        state.block = np.empty((lanes, min(RECORD_BLOCK_ITERS, max_iters - state.k), width))
        state.block_rows = np.arange(lanes)
        for lane, block in zip(state.lane.tolist(), state.block):
            state.records[lane].append(block)
    scalars = (it.alpha, it.beta, it.lo, it.hi, it.count, it.hit, it.c_l1, np.sqrt(dot(it.c, it.c)), it.c_inf,
               it.stat, state.factors.sigma_min)
    rows = (state.x, it.u, it.v, it.direction, np.array(scalars, dtype=float).T)
    if len(state.block) == lanes:
        np.concatenate(rows, axis=1, out=state.block[:, j])
    else:
        state.block[state.block_rows, j] = np.concatenate(rows, axis=1)


def stepsize_rule(config: SolverConfig, q: float, b: float, c_l1: float, u_sq: float) -> tuple[float, ...]:
    """One lane's advanced accumulators and stepsizes (q, b, beta, lo, hi) at one iteration (see
    "Stepsizes"), from its q, b, ||c||_1 and ||u||^2; the auditor replays it from q0 and b0."""
    if config.strategy == "fixed":
        beta = config.eta if config.alpha_rule == "backtrack" else config.eta / math.sqrt(config.max_iters)
        return q, b, beta, config.nu, config.nu + config.theta * beta
    q = math.sqrt(q * q + c_l1)
    lo = config.nu / q
    if config.strategy == "adaptive":
        b = adaptive_update(b, u_sq)
        return q, b, config.eta / b, lo, lo + min(config.theta / b, config.theta / q)
    return q, b, config.eta, lo, lo + config.theta * config.eta


def _advance(state: SolverState, it: Iteration) -> None:
    """Take one step on every lane from the observed values of `it`; writes their records
    if the state is recording, ends lanes that fail."""
    config = state.configs[0]
    g = _noisy_gradients(it.grad, state, config.max_iters)
    it.u, it.v = solve_step(state.problem.h_matrix, g, it.c, state.factors)
    u_sq = dot(it.u, it.u).tolist() if config.strategy == "adaptive" else [0.0] * len(it.c)  # read by adaptive
    rule = [stepsize_rule(config, q, b, l1, uu) for q, b, l1, uu in zip(state.q, state.b, it.c_l1, u_sq)]
    state.q, state.b, it.beta, it.lo, it.hi = map(list, zip(*rule))
    bad = {i: NonPositiveBeta(f"stepsizes underflowed: beta = {b!r}, alpha lower end = {lo!r}")
           if not (b > 0.0 and lo > 0.0) else
           StepsizeOverflow(f"stepsizes overflowed: beta = {b!r}, alpha upper end = {hi!r}")
           for i, (b, lo, hi) in enumerate(zip(it.beta, it.lo, it.hi))
           if not (0.0 < b < math.inf and 0.0 < lo <= hi < math.inf)}
    if not state.end(bad, it):
        return

    beta = np.array(it.beta)[:, None]
    it.direction = beta * (it.u + it.v) if config.strategy == "ablation" else beta * it.u + it.v
    if config.searches:
        it.alpha, it.hit, it.count, failed = backtrack_rows(
            lambda z: evaluate_c(state.problem, z), state.x, it.direction, it.c_l1, it.hi, it.lo,
            config.xi, config.rho)
        if not state.end(failed, it):
            return
    else:
        it.alpha = it.lo if config.alpha_rule == "lower" else it.hi
        it.hit, it.count = [False] * len(it.c), [0] * len(it.c)

    if state.recording:
        _record(state, it, config.max_iters)
    state.x = state.x + np.array(it.alpha)[:, None] * it.direction
    state.k += 1


def step(state: SolverState) -> bool:
    """One lockstep iteration of the lanes still running; returns whether any lane runs on.

    Evaluates every lane, factors the J stack (`linalg.factor_step`, which
    keeps the state's factors while J's bytes stay) and measures (||c||_1,
    ||c||_inf, stationarity); ends the lanes that fail there, those that
    meet both tolerances or, at k = max_iters, every lane left, and advances
    the rest by one step.  It runs under `run_lanes`' np.errstate, which
    turns overflow and invalid-value warnings off: a lane whose values stop
    being finite ends with its failure token instead.  `run_lanes` is its
    only caller; the function keeps its name because the benchmark's tracer
    times the iteration under `tssqp.solver.step`.
    """
    ev, failed = evaluate(state.problem, state.x)
    it = Iteration(ev.grad, ev.c, ev.jac)
    if not state.end(failed, it):
        return False
    state.factors = factor_step(state.problem.h_matrix, it.jac, state.factors)
    if not state.end(state.factors.mult_failed, it):
        return False
    y = least_squares_multiplier(it.grad, state.factors)
    it.stat = np.abs(it.grad + mv(state.factors.J.mT, y)).max(axis=1)
    c_abs = np.abs(it.c)
    it.c_l1, it.c_inf = c_abs.sum(axis=1).tolist(), c_abs.max(axis=1)
    done = state.observe(it.c_inf, it.stat)
    if state.k == state.configs[0].max_iters:
        return state.end(dict.fromkeys(range(len(state.lane)), BUDGET_EXHAUSTED))
    # a lane that has converged ends converged even where its step cannot be taken
    if state.end({**state.factors.step_failed, **done}, it):
        _advance(state, it)
    return len(state.lane) > 0


def run_lanes(problem: Problem, configs, seeds, x0=None, records: bool = True) -> list[Trace]:
    """Run one lane per (configs[i], seeds[i]) in lockstep; returns their traces in that order.

    The configs may differ only in `noise` and `noise_seed`.  Lane i's trace is
    bitwise the trace of `run(problem, configs[i], seeds[i], x0)` (its
    `wall_s` aside); `SolverState.end` builds it when the lane ends.  With
    `records=False` the run keeps no records: every trace has `table` None
    and the same fields otherwise.
    """
    state = _init_lanes(problem, configs, seeds, x0, records)
    with np.errstate(over="ignore", invalid="ignore"):
        while step(state):
            pass
    return state.traces


def run(problem: Problem, config: SolverConfig, seed: int = 0, x0=None) -> Trace:
    """Iterate until converged, out of budget, or failed: `run_lanes` with one lane.

    Reported errors follow the experiment protocol: the measures at the first
    sufficiently feasible iterate when one exists, otherwise at the least
    infeasible iterate visited (terminal point included).
    """
    return run_lanes(problem, [config], [seed], x0)[0]
