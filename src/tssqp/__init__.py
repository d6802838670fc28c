"""Two-stepsize stochastic SQP for equality-constrained stochastic objectives."""

from .diagnostics import (
    AuditReport,
    audit_trace,
    tau_min,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    EvaluationFailure,
    IndefiniteReducedHessian,
    InvalidLineSearchConfig,
    NonPositiveBeta,
    ParseError,
    RankDeficientJacobian,
    StepsizeOverflow,
    TssqpError,
    UnknownProblem,
)
from .harness import (
    ExperimentPlan,
    ResultRow,
    run_experiment,
    run_seed,
    summarize,
    to_csv,
    to_json,
)
from .linalg import least_squares_multiplier, solve_step
from .problems import (
    Evaluation,
    NoiseModel,
    Problem,
    builtin_names,
    builtin_suite,
    evaluate,
    load_problem,
    standard_normal_vector,
)
from .solver import (
    IterationRecord,
    SolverConfig,
    SolverState,
    Trace,
    run,
    run_lanes,
)
from .stepsize import adaptive_update, backtrack_count_bound, safeguarded_backtrack

__version__ = "0.1.0"
