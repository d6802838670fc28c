"""Equality-constrained test problems, their oracles and the gradient noise draw.

A :class:`Problem` bundles deterministic evaluation oracles for the objective
``f``, its gradient, the constraint vector ``c`` and the constraint Jacobian
``J`` (rows are constraint gradients), plus a constraint-only oracle for ``c``
alone, which is all the line search needs at its trial points.  Problems come
from the built-in registry or from JSON files describing quadratic objectives
with linear constraints (see :func:`load_problem`).

The solver draws stochastic gradients ``g = grad_f(x) + sqrt(eps) * z`` with
``z`` standard normal and the level ``eps`` set by ``SolverConfig.noise``.
Normal deviates are produced by :func:`standard_normal_vector`, the
Box-Muller transform applied to PCG64 uniforms, so that a given seed yields
the same draw sequence on every platform (up to floating-point ULPs in
``log``/``cos``/``sin``).

The solver advances several lanes (runs) at once and evaluates them through
:func:`evaluate`/:func:`evaluate_c`, which call each oracle once on the
whole ``(B, n)`` stack of points; a single point is the stack ``x[None]``.
``J`` comes back as a ``(B, m, n)`` stack, and the rows whose output is not
finite are reported as a ``{row: exception}`` map, not raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, EvaluationFailure, ParseError, UnknownProblem, check_count
from .linalg import dot, mv

EvalFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
CFn = Callable[[np.ndarray], np.ndarray]


class Evaluation(NamedTuple):
    """Deterministic oracle output, stacked over the rows of a (B, n) stack of points."""

    f: np.ndarray
    grad: np.ndarray
    c: np.ndarray
    jac: np.ndarray


@dataclass(frozen=True)
class Problem:
    """An equality-constrained problem min f(x) s.t. c(x) = 0.

    Both oracles take a ``(B, n)`` stack of points ``X`` and must be pure
    functions of it, row by row: row ``i`` of the output depends on ``X[i]``
    alone.  ``eval_fn(X)`` returns ``f`` (B,), ``grad`` (B, n), ``c`` (B, m)
    and ``jac`` (B, m, n), or ``jac`` (m, n) when it is one matrix for every
    point.  ``c_fn(X)`` returns ``c`` alone and must be bitwise equal to the
    ``c`` of ``eval_fn(X)``: the line search and the auditor call it at trial
    points, so no gradient or Jacobian is computed there.  An oracle reports
    a point where it fails by returning a non-finite value there; output of
    any other shape raises DimensionMismatch.  ``known_kkt`` optionally
    carries a first-order stationary pair ``(x_star, y_star)`` used by tests.
    ``h_matrix`` optionally fixes the constant quadratic model matrix used by
    the solver for this problem.
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
        check_count(f"{self.name}: n", self.n, 1)
        check_count(f"{self.name}: m", self.m, 1)
        if self.m > self.n:
            raise ConfigError(f"{self.name}: need m <= n, got n={self.n}, m={self.m}")
        if self.h_matrix is not None:
            if np.shape(self.h_matrix) != (self.n, self.n):
                raise DimensionMismatch(f"{self.name}: h_matrix has shape {np.shape(self.h_matrix)}, "
                                        f"expected ({self.n}, {self.n})")
            if not np.isfinite(self.h_matrix).all():
                raise ConfigError(f"{self.name}: h_matrix must be finite")


def _failures(problem: Problem, X: np.ndarray, what: str, *arrays: np.ndarray) -> dict[int, Exception]:
    """{row: EvaluationFailure} for the rows of X whose `arrays` (leading axis: rows) hold a non-finite entry.

    All the values are first tested at once, with one `isfinite` and one reduce over their
    concatenation (at two lanes of n <= 5, 2.9 us against 6.0 us for one test per array);
    the rows are scanned only when that test fails.  No sum is taken: it could overflow."""
    flat = arrays[0] if len(arrays) == 1 else np.concatenate(list(map(np.ndarray.ravel, arrays)))
    if np.logical_and.reduce(np.isfinite(flat), axis=None):
        return {}
    ok = True
    for a in arrays:
        ok = ok & np.isfinite(a).reshape(len(a), -1).all(axis=1)
    return {i: EvaluationFailure(f"{problem.name}: non-finite {what} at x={X[i]!r}")
            for i in np.flatnonzero(~ok).tolist()}


def _check_points(problem: Problem, X: np.ndarray) -> None:
    if np.shape(X) != (len(X), problem.n):
        raise DimensionMismatch(f"{problem.name}: points have shape {np.shape(X)}, expected (B, {problem.n})")


def evaluate(problem: Problem, X: np.ndarray) -> tuple[Evaluation, dict[int, Exception]]:
    """The deterministic oracles at each row of X (B, n), in one call, without raising on non-finite output.

    Returns the stacked evaluation (``f`` (B,), ``grad`` (B, n), ``c`` (B, m),
    ``jac`` (B, m, n); a one-matrix J is repeated on each row) and the
    {row: EvaluationFailure} map of the rows whose output is not finite.
    Shapes of X and of the output are checked on every call and raise
    DimensionMismatch.  Floating-point warnings follow the caller's ``np.errstate``.
    """
    _check_points(problem, X)
    f, grad, c, jac = problem.eval_fn(X)
    f = np.asarray(f, dtype=float)
    grad = np.ascontiguousarray(grad, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    jac = np.ascontiguousarray(jac, dtype=float)
    B, n, m = len(X), problem.n, problem.m
    if jac.shape == (m, n):
        jac = jac[None].repeat(B, axis=0)
    if f.shape != (B,) or grad.shape != (B, n) or c.shape != (B, m) or jac.shape != (B, m, n):
        raise DimensionMismatch(
            f"{problem.name}: oracle shapes f={f.shape} grad={grad.shape} c={c.shape} jac={jac.shape} "
            f"inconsistent with {B} points, n={n}, m={m}"
        )
    return Evaluation(f, grad, c, jac), _failures(problem, X, "oracle output", f, grad, c, jac)


def evaluate_c(problem: Problem, X: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """The constraint-only oracle ``c_fn`` at each row of X (B, n), in one call: c (B, m) and the
    failure map, as in :func:`evaluate`."""
    _check_points(problem, X)
    c = np.ascontiguousarray(problem.c_fn(X), dtype=float)
    if c.shape != (len(X), problem.m):
        raise DimensionMismatch(f"{problem.name}: c_fn shape {c.shape} inconsistent with "
                                f"{len(X)} points, m={problem.m}")
    return c, _failures(problem, X, "constraint value", c)


def standard_normal_vector(streams: list[np.random.Generator], n: int, k: int) -> np.ndarray:
    """k vectors of n standard-normal deviates per stream, as a (B, k, n) array,
    via Box-Muller over PCG64 uniforms.

    Vector j of a stream is built from the uniforms [2 half j, 2 half (j + 1))
    of one ``random(2 * half * k)`` call, where half = ceil(n / 2); an odd n
    drops the last deviate of each vector.  The transform runs on the whole
    (B, k, 2 half) block, which gives each vector the bits of its own
    transform, so a block equals k draws with k = 1 from the same streams.
    """
    half = (n + 1) // 2
    u = np.array([stream.random(2 * half * k) for stream in streams]).reshape(len(streams), k, 2 * half)
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :half]))  # 1 - u in (0, 1] keeps log() finite
    t = 2.0 * np.pi * u[..., half:]
    z = np.empty_like(u)
    z[..., 0::2] = r * np.cos(t)
    z[..., 1::2] = r * np.sin(t)
    return z[..., :n]


# ---------------------------------------------------------------------------
# Built-in suite
# ---------------------------------------------------------------------------

# Each built-in writes its oracles once, for one point (n,) or a stack (B, n),
# with `dot`/`mv` where a 1-D oracle would use `@`.

def _qp2() -> Problem:
    # f = 0.5 ||x||^2, c = x1 - 1
    def con(x):
        return x[..., :1] - 1.0

    def ev(x):
        return 0.5 * dot(x, x), x.copy(), con(x), np.array([[1.0, 0.0]])

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
# Its KKT pair, from a dense solve of the (n+m) stationarity system.
_QPLIN5_KKT = (
    np.array([-0.4583868544816681, 0.2678075263944699, 0.3704236901929116, 0.07904345405993235,
              -0.1657960948207623]),
    np.array([-0.14603667797891676, 0.3622919231074468]),
)


def _make_quadratic_linear(name, Q, g0, A, b, x0, known_kkt=None) -> Problem:
    Q = np.asarray(Q, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def con(x):
        return mv(A, x) - b

    def ev(x):
        # x'Qx as (x'Q) x, in the order of x @ Q @ x
        xQx = (x[..., None, :] @ Q @ x[..., :, None])[..., 0, 0]
        return 0.5 * xQx + dot(g0, x), mv(Q, x) + g0, con(x), A.copy()

    return Problem(
        name=name, n=Q.shape[0], m=A.shape[0], eval_fn=ev, c_fn=con, x0=np.asarray(x0, dtype=float),
        known_kkt=known_kkt,
    )


def _qplin5() -> Problem:
    return _make_quadratic_linear("qplin5", _QPLIN5_Q, _QPLIN5_G0, _QPLIN5_A, _QPLIN5_B, np.zeros(5),
                                  _QPLIN5_KKT)


def _sphere(x, radius_sq: float):
    """||x||^2 - radius_sq as a length-1 constraint vector of each point."""
    return (dot(x, x) - radius_sq)[..., None]


def _sphere3() -> Problem:
    # f = x1 + x2 + x3, c = ||x||^2 - 3; minimizer (-1,-1,-1) with multiplier 1/2
    def con(x):
        return _sphere(x, 3.0)

    def ev(x):
        return x.sum(axis=-1), np.ones(x.shape), con(x), 2.0 * x[..., None, :]

    return Problem(
        name="sphere3", n=3, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([2.0, 0.0, 0.0]),
        known_kkt=(np.array([-1.0, -1.0, -1.0]), np.array([0.5])),
    )


# Constrained stationary point of the Rosenbrock objective on x1 + x2 = 1,
# solved to machine precision by Newton on the reduced derivative.
_ROSEN_T = 0.6187956190750254
_ROSEN_Y = 0.34072745229388746


def _pow2(a: np.ndarray) -> np.ndarray:
    """`** 2` on each entry as a float64 scalar (libm pow), whose bits now and then
    differ in the last place from a * a and from `** 2` on an array."""
    return np.array([v ** 2 for v in np.ravel(a)]).reshape(np.shape(a))


def _rosenlin2() -> Problem:
    def con(x):
        return x[..., :1] + x[..., 1:] - 1.0

    def ev(x):
        x1, x2 = x[..., 0], x[..., 1]
        r = x2 - _pow2(x1)
        f = 100.0 * r * r + _pow2(1.0 - x1)
        grad = np.stack([-400.0 * x1 * r - 2.0 * (1.0 - x1), 200.0 * r], axis=-1)
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
        return _sphere(x, 5.0)

    def ev(x):
        grad = np.empty(x.shape)
        grad[...] = (1.0, 2.0)
        return x[..., 0] + 2.0 * x[..., 1], grad, con(x), 2.0 * x[..., None, :]

    return Problem(
        name="lincirc2", n=2, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([3.0, 0.0]),
        known_kkt=(np.array([-1.0, -2.0]), np.array([0.5])),
    )


def _projball2() -> Problem:
    # f = 0.5 ||x - (2,0)||^2, c = ||x||^2 - 1; nearest point (1,0), multiplier 1/2
    a = np.array([2.0, 0.0])

    def con(x):
        return _sphere(x, 1.0)

    def ev(x):
        d = x - a
        return 0.5 * dot(d, d), d, con(x), 2.0 * x[..., None, :]

    return Problem(
        name="projball2", n=2, m=1, eval_fn=ev, c_fn=con,
        x0=np.array([0.5, 1.5]),
        known_kkt=(np.array([1.0, 0.0]), np.array([0.5])),
    )


def _quadsphere4() -> Problem:
    # f = 0.5 x' diag(1..4) x, c = ||x||^2 - 4; minimum 2 e1, multiplier -1/2
    d = np.array([1.0, 2.0, 3.0, 4.0])

    def con(x):
        return _sphere(x, 4.0)

    def ev(x):
        dx = d * x
        return 0.5 * dot(x, dx), dx, con(x), 2.0 * x[..., None, :]

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
    n, m = obj["n"], obj["m"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, m)):
        raise ParseError(f"{path}: fields 'n'/'m' must be JSON integers, got n={n!r}, m={m!r}")
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
    for key, arr in (("Q", Q), ("g0", g0), ("A", A), ("b", b)):
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: field '{key}' must hold finite numbers only")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ParseError(f"{path}: field 'Q' must be symmetric")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{path}: field 'name' must be a nonempty string")
    if any(ch in name for ch in ',"\r\n'):
        # the name is a field of every CSV row, written unquoted
        raise ParseError(f"{path}: field 'name' must not contain a comma, a double quote or a line break, "
                         f"got {name!r}")
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
