"""Independent oracles and test-only quantities shared by the test modules.

The oracles deliberately avoid the library's null-space construction: the KKT
oracle factors the dense augmented saddle-point matrix directly, and the
backtracking oracle replays the search loop from its written definition.  The
merit-function quantities and `error_measures` at the end are used only by
the tests; the solver itself needs none of them.  `first_iteration` takes one
iteration of a one-lane run the way `run_lanes` does, and `count_getrf` counts
the LU factorizations of the reduced Hessian.
"""

import numpy as np

from tssqp import DimensionMismatch, evaluate, least_squares_multiplier, linalg
from tssqp.solver import _init_lanes, step


def first_iteration(problem, config, x0=None, seed=0):
    """The one-lane state after one `solver.step` from x0 (default problem.x0).

    `state.x[0]` is the next iterate and `state.records[0][0]` the record of
    the step, unless the lane ended (see `state.status`/`state.error`).
    """
    state = _init_lanes(problem, [config], [seed], x0)
    with np.errstate(over="ignore", invalid="ignore"):
        step(state, problem, config)
    return state


def count_getrf(monkeypatch) -> list:
    """Wraps `linalg`'s `dgetrf` binding, where there is one; the returned list
    gets one entry per call."""
    calls = []
    if linalg._LAPACK is not None:
        getrf, getrs = linalg._LAPACK

        def counting_getrf(*args):
            calls.append(args)
            return getrf(*args)

        monkeypatch.setattr(linalg, "_LAPACK", (counting_getrf, getrs))
    return calls


def augmented_solve(H, J, g, c):
    """Dense solve of [[H, J'], [J, 0]] [p; y] = -[g; c]."""
    n = H.shape[0]
    m = J.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = J.T
    K[n:, :n] = J
    rhs = -np.concatenate([g, c])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def null_space_oracle(J):
    """Orthonormal basis of Null(J) from the trailing right singular vectors."""
    m = J.shape[0]
    _, _, Vt = np.linalg.svd(J, full_matrices=True)
    return Vt[m:, :].T


def pinv_normal_component(J, c):
    """v = -pinv(J) c, the minimum-norm solution of J v = -c."""
    return -np.linalg.pinv(J) @ c


def replay_backtrack(c_fn, x, d, upper, lower, xi, rho):
    """Literal transcription of the safeguarded search; returns (alpha, hit, count)."""
    alpha = upper
    count = 0
    history = [alpha]

    def holds(a):
        return np.abs(np.atleast_1d(c_fn(x + a * d))).sum() <= (1 - xi * a) * np.abs(
            np.atleast_1d(c_fn(x))
        ).sum()

    while not holds(alpha) and alpha > lower:
        alpha = rho * alpha
        count += 1
        history.append(alpha)
    if holds(alpha) and alpha >= lower:
        return alpha, False, count
    return lower, True, count


def random_instance(rng, n_max=50, m_max=20):
    """Random full-rank instance with H = I + rank-safe SPD perturbation."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, min(m_max, n - 1) + 1))
    J = rng.normal(size=(m, n))
    B = rng.normal(size=(n, max(1, n // 3)))
    H = np.eye(n) + (B @ B.T) / n
    g = rng.normal(size=n)
    c = rng.normal(size=m)
    return H, J, g, c


def merit_phi(f_val: float, c_l1: float, tau: float) -> float:
    """Exact-penalty merit tau * f + ||c||_1."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if c_l1 < 0:
        raise ValueError(f"c_l1 must be nonnegative, got {c_l1}")
    return tau * f_val + c_l1


def model_l(f_val, grad, c, J, tau, d) -> float:
    """Linearized merit model tau (f + grad' d) + ||c + J d||_1."""
    grad = np.asarray(grad, dtype=float)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    J = np.asarray(J, dtype=float)
    d = np.asarray(d, dtype=float)
    if J.shape != (c.shape[0], grad.shape[0]) or d.shape != grad.shape:
        raise DimensionMismatch(
            f"inconsistent shapes: grad={grad.shape}, c={c.shape}, J={J.shape}, d={d.shape}"
        )
    return tau * (f_val + float(grad @ d)) + float(np.abs(c + J @ d).sum())


def model_reduction(grad, c_l1: float, tau: float, d) -> float:
    """Closed-form model decrease -tau grad' d + ||c||_1.

    Valid on directions with c + J d = 0; that precondition is the caller's
    contract and is what the auditor verifies on recorded steps.
    """
    grad = np.asarray(grad, dtype=float)
    d = np.asarray(d, dtype=float)
    return -tau * float(grad @ d) + c_l1


def nu_upper_bound(sigma: float, kappa_v: float, tau: float, lip_grad: float, lip_jac: float) -> float:
    """Admissible global-stepsize bound sigma / (2 kappa_v (tau L + Gamma) + 4).

    The Lipschitz constants are explicit inputs; nothing estimates them.
    """
    return sigma / (2.0 * kappa_v * (tau * lip_grad + lip_jac) + 4.0)


def error_measures(problem, x):
    """(feasibility error, stationarity error, least-squares multiplier) at x.

    Both errors are infinity norms; the multiplier always comes from the true
    gradient.
    """
    ev = evaluate(problem, np.asarray(x, dtype=float)[None])[0]
    grad, c, jac = ev.grad[0], ev.c[0], ev.jac[0]
    y = least_squares_multiplier(jac, grad)
    return float(np.abs(c).max()), float(np.abs(grad + jac.T @ y).max()), y
