"""Equality-constrained test problems and the gradient noise model.

A :class:`Problem` bundles deterministic evaluation oracles for the objective
``f``, its gradient, the constraint vector ``c`` and the constraint Jacobian
``J`` (rows are constraint gradients), plus a constraint-only oracle for ``c``
alone, which is all the line search needs at its trial points.  Problems come
from the built-in registry or from JSON files describing quadratic objectives
with linear constraints (see :func:`load_problem`).

The solver draws stochastic gradients ``g = grad_f(x) + sqrt(eps) * z`` with
``z`` standard normal.  Normal deviates are produced by the Box-Muller
transform applied to PCG64 uniforms so that a given seed yields the same draw
sequence on every platform (up to floating-point ULPs in ``log``/``cos``/``sin``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, EvaluationFailure, ParseError, UnknownProblem, check_count

EvalFn = Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray, np.ndarray]]
CFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Evaluation:
    """Deterministic oracle output at a single point."""

    f: float
    grad: np.ndarray
    c: np.ndarray
    jac: np.ndarray


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian gradient noise: g ~ N(grad_f(x), epsilon_n * I).

    ``epsilon_n = 0`` makes the oracle return the true gradient exactly.
    The implied variance bound is ``M = n * epsilon_n``.
    """

    epsilon_n: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epsilon_n < 0:
            raise ConfigError(f"epsilon_n must be nonnegative, got {self.epsilon_n}")
        check_count("noise seed", self.seed, 0)

    def stream(self, key: int = 0) -> np.random.Generator:
        """Fresh generator derived from (seed, key); one owner per run."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, key))))


@dataclass(frozen=True)
class Problem:
    """An equality-constrained problem min f(x) s.t. c(x) = 0.

    ``eval_fn(x)`` returns ``(f, grad, c, jac)`` and must be a pure function
    of ``x``.  ``c_fn(x)`` returns ``c`` alone and must be bitwise equal to the
    ``c`` of ``eval_fn(x)``: the line search and the auditor call it at trial
    points, so no gradient or Jacobian is computed there.  ``known_kkt``
    optionally carries a first-order stationary pair ``(x_star, y_star)`` used
    by tests.  ``h_matrix`` optionally fixes the constant quadratic model
    matrix used by the solver for this problem.
    """

    name: str
    n: int
    m: int
    eval_fn: EvalFn
    c_fn: CFn
    x0: np.ndarray
    known_kkt: Optional[tuple[np.ndarray, np.ndarray]] = None
    h_matrix: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m <= 0 or self.m > self.n:
            raise ValueError(f"need 0 < m <= n, got n={self.n}, m={self.m}")


def _point(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch(
            f"{problem.name}: x has shape {x.shape}, expected ({problem.n},)"
        )
    return x


def evaluate(problem: Problem, x: np.ndarray) -> Evaluation:
    """Evaluate the deterministic oracles, checking shapes and finiteness."""
    x = _point(problem, x)
    with np.errstate(over="ignore", invalid="ignore"):
        f, grad, c, jac = problem.eval_fn(x)
    f = float(f)
    grad = np.asarray(grad, dtype=float)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    jac = np.asarray(jac, dtype=float)
    if grad.shape != (problem.n,) or c.shape != (problem.m,) or jac.shape != (problem.m, problem.n):
        raise DimensionMismatch(
            f"{problem.name}: oracle shapes grad={grad.shape} c={c.shape} jac={jac.shape} "
            f"inconsistent with n={problem.n}, m={problem.m}"
        )
    if not (math.isfinite(f) and np.isfinite(grad).all() and np.isfinite(c).all() and np.isfinite(jac).all()):
        raise EvaluationFailure(f"{problem.name}: non-finite oracle output at x={x!r}")
    return Evaluation(f=f, grad=grad, c=c, jac=jac)


def evaluate_c(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Evaluate the constraint-only oracle ``c_fn`` with the checks of :func:`evaluate`."""
    x = _point(problem, x)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.atleast_1d(np.asarray(problem.c_fn(x), dtype=float))
    if c.shape != (problem.m,):
        raise DimensionMismatch(f"{problem.name}: c_fn shape {c.shape} inconsistent with m={problem.m}")
    if not np.isfinite(c).all():
        raise EvaluationFailure(f"{problem.name}: non-finite constraint value at x={x!r}")
    return c


def standard_normal_vector(stream: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal deviates via Box-Muller over PCG64 uniforms."""
    half = (n + 1) // 2
    u1 = 1.0 - stream.random(half)  # in (0, 1], keeps log() finite
    u2 = stream.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * half)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n]


# ---------------------------------------------------------------------------
# Built-in suite
# ---------------------------------------------------------------------------

def _qp2() -> Problem:
    # f = 0.5 ||x||^2, c = x1 - 1
    def con(x):
        return np.array([x[0] - 1.0])

    def ev(x):
        return 0.5 * float(x @ x), x.copy(), con(x), np.array([[1.0, 0.0]])

    return Problem(
        name="qp2", n=2, m=1, eval_fn=ev, c_fn=con,
        x0=np.zeros(2),
        known_kkt=(np.array([1.0, 0.0]), np.array([-1.0])),
    )


# Fixed SPD quadratic for qplin5 (eigenvalues in [0.82, 2.66], sigma(A) in [1.93, 2.89]).
_QPLIN5_Q = np.array([
    [1.03, 0.07, 0.18, 0.40, -0.01],
    [0.07, 1.48, 0.03, 0.07, -0.03],
    [0.18, 0.03, 1.05, 0.32, -0.28],
    [0.40, 0.07, 0.32, 2.35, -0.22],
    [-0.01, -0.03, -0.28, -0.22, 1.83],
])
_QPLIN5_G0 = np.array([0.88, -0.58, -0.11, 0.11, 0.06])
_QPLIN5_A = np.array([
    [-0.19, -2.52, -0.54, -0.05, 0.11],
    [-1.53, -0.48, -0.98, -0.81, 1.06],
])
_QPLIN5_B = np.array([-0.81, -0.03])


def _quadratic_linear_kkt(Q: np.ndarray, g0: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Dense solve of the (n+m) x (n+m) stationarity system for f = 0.5 x'Qx + g0'x, Ax = b."""
    n, m = Q.shape[0], A.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = Q
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    rhs = np.concatenate([-g0, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol[:n], sol[n:]


def _make_quadratic_linear(name, Q, g0, A, b, x0) -> Problem:
    Q = np.asarray(Q, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def con(x):
        return A @ x - b

    def ev(x):
        return (
            0.5 * float(x @ Q @ x) + float(g0 @ x),
            Q @ x + g0,
            con(x),
            A.copy(),
        )

    return Problem(
        name=name, n=Q.shape[0], m=A.shape[0], eval_fn=ev, c_fn=con, x0=np.asarray(x0, dtype=float),
        known_kkt=_quadratic_linear_kkt(Q, g0, A, b),
    )


def _qplin5() -> Problem:
    return _make_quadratic_linear("qplin5", _QPLIN5_Q, _QPLIN5_G0, _QPLIN5_A, _QPLIN5_B, np.zeros(5))


def _sphere3() -> Problem:
    # f = x1 + x2 + x3, c = ||x||^2 - 3; minimizer (-1,-1,-1) with multiplier 1/2
    def con(x):
        return np.array([float(x @ x) - 3.0])

    def ev(x):
        return float(x.sum()), np.ones(3), con(x), 2.0 * x[None, :]

    return Problem(
        name="sphere3", n=3, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([2.0, 0.0, 0.0]),
        known_kkt=(np.array([-1.0, -1.0, -1.0]), np.array([0.5])),
    )


# Constrained stationary point of the Rosenbrock objective on x1 + x2 = 1,
# solved to machine precision by Newton on the reduced derivative.
_ROSEN_T = 0.6187956190750254
_ROSEN_Y = 0.34072745229388746


def _rosenlin2() -> Problem:
    def con(x):
        return np.array([x[0] + x[1] - 1.0])

    def ev(x):
        r = x[1] - x[0] ** 2
        f = 100.0 * r * r + (1.0 - x[0]) ** 2
        grad = np.array([-400.0 * x[0] * r - 2.0 * (1.0 - x[0]), 200.0 * r])
        return f, grad, con(x), np.array([[1.0, 1.0]])

    # Reduced curvature along the constraint line peaks near 1e3; H = 150 I keeps
    # the tangential step alpha * beta / 150 stable at the §6 stepsizes.
    return Problem(
        name="rosenlin2", n=2, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([-1.2, 1.0]),
        known_kkt=(np.array([_ROSEN_T, 1.0 - _ROSEN_T]), np.array([_ROSEN_Y])),
        h_matrix=150.0 * np.eye(2),
    )


def _lincirc2() -> Problem:
    # f = x1 + 2 x2, c = ||x||^2 - 5; minimizer (-1,-2) with multiplier 1/2
    def con(x):
        return np.array([float(x @ x) - 5.0])

    def ev(x):
        return float(x[0] + 2.0 * x[1]), np.array([1.0, 2.0]), con(x), 2.0 * x[None, :]

    return Problem(
        name="lincirc2", n=2, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([3.0, 0.0]),
        known_kkt=(np.array([-1.0, -2.0]), np.array([0.5])),
    )


def _projball2() -> Problem:
    # f = 0.5 ||x - (2,0)||^2, c = ||x||^2 - 1; nearest point (1,0), multiplier 1/2
    a = np.array([2.0, 0.0])

    def con(x):
        return np.array([float(x @ x) - 1.0])

    def ev(x):
        d = x - a
        return 0.5 * float(d @ d), d, con(x), 2.0 * x[None, :]

    return Problem(
        name="projball2", n=2, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([0.5, 1.5]),
        known_kkt=(np.array([1.0, 0.0]), np.array([0.5])),
    )


def _quadsphere4() -> Problem:
    # f = 0.5 x' diag(1..4) x, c = ||x||^2 - 4; minimum 2 e1, multiplier -1/2
    d = np.array([1.0, 2.0, 3.0, 4.0])

    def con(x):
        return np.array([float(x @ x) - 4.0])

    def ev(x):
        return 0.5 * float(x @ (d * x)), d * x, con(x), 2.0 * x[None, :]

    return Problem(
        name="quadsphere4", n=4, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([0.5, 1.0, 1.0, 1.0]),
        known_kkt=(np.array([2.0, 0.0, 0.0, 0.0]), np.array([-0.5])),
    )


_REGISTRY: dict[str, Callable[[], Problem]] = {
    "qp2": _qp2,
    "qplin5": _qplin5,
    "sphere3": _sphere3,
    "rosenlin2": _rosenlin2,
    "lincirc2": _lincirc2,
    "projball2": _projball2,
    "quadsphere4": _quadsphere4,
}


def builtin_names() -> list[str]:
    return list(_REGISTRY)


def builtin_suite() -> list[Problem]:
    return [make() for make in _REGISTRY.values()]


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_FILE_KEYS = {"name", "n", "m", "kind", "Q", "g0", "A", "b"}


def _file_matrix(obj, key: str, rows: int, cols: int) -> np.ndarray:
    """Accept an array either nested (list of rows) or flat in row-major order."""
    raw = obj[key]
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        if arr.size != rows * cols:
            raise ParseError(f"field '{key}': expected {rows * cols} entries, got {arr.size}")
        return arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise ParseError(f"field '{key}': expected shape ({rows}, {cols}), got {arr.shape}")
    return arr


def _parse_problem_file(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    missing = _FILE_KEYS - obj.keys()
    if missing:
        raise ParseError(f"{path}: missing fields {sorted(missing)}")
    unknown = obj.keys() - _FILE_KEYS
    if unknown:
        raise ParseError(f"{path}: unknown fields {sorted(unknown)}")
    if obj["kind"] != "quadratic_linear":
        raise ParseError(f"{path}: field 'kind': only 'quadratic_linear' is file-loadable, got {obj['kind']!r}")
    try:
        n, m = int(obj["n"]), int(obj["m"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: fields 'n'/'m' must be integers") from exc
    if n <= 0 or m <= 0 or m > n:
        raise ParseError(f"{path}: need 0 < m <= n, got n={n}, m={m}")
    try:
        Q = _file_matrix(obj, "Q", n, n)
        A = _file_matrix(obj, "A", m, n)
        g0 = np.asarray(obj["g0"], dtype=float).reshape(-1)
        b = np.asarray(obj["b"], dtype=float).reshape(-1)
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: non-numeric array field: {exc}") from exc
    if g0.size != n:
        raise ParseError(f"{path}: field 'g0': expected {n} entries, got {g0.size}")
    if b.size != m:
        raise ParseError(f"{path}: field 'b': expected {m} entries, got {b.size}")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ParseError(f"{path}: field 'Q' must be symmetric")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{path}: field 'name' must be a nonempty string")
    return _make_quadratic_linear(name, Q, g0, A, b, np.zeros(n))


def load_problem(source: str) -> Problem:
    """Build a Problem from a registry name or a quadratic_linear JSON file.

    Rank deficiency of the constraint Jacobian is not checked here; it is
    x-dependent for nonlinear constraints and surfaces at solve time.
    """
    if source in _REGISTRY:
        return _REGISTRY[source]()
    if source.endswith(".json"):
        return _parse_problem_file(source)
    raise UnknownProblem(f"{source!r} is not a built-in problem (and not a .json file path)")
