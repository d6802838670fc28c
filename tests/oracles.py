"""Independent oracles and test-only quantities shared by the test modules.

The oracles deliberately avoid the library's null-space construction: the KKT
oracle factors the dense augmented saddle-point matrix directly, and the
backtracking oracle replays the search loop from its written definition.  The
merit-function quantities and `error_measures` at the end are used only by
the tests; the solver itself needs none of them.  `first_iteration` takes one
iteration of a one-lane run the way `run_lanes` does, `edit_records` corrupts
a copy of a trace's records for the auditor, and `count_getrf` counts the LU
factorizations of the reduced Hessian.  `kkt_step` and `lsq_multiplier` factor
one (H, J) and solve with it at once, the one-shot use of the library's kernels
that the tests make; `sqp_multiplier` gives the multiplier y of the Newton SQP
system from those factors, which the solver never needs.
"""

import dataclasses

import numpy as np

from tssqp import DimensionMismatch, evaluate, linalg
from tssqp.solver import RECORD_SCALARS, _init_lanes, _records, record_fields, step


def first_iteration(problem, config, x0=None, seed=0):
    """The one-lane state after one `solver.step` from x0 (default problem.x0), and the
    record of that step.

    `state.x[0]` is the next iterate, unless the lane ended (see its trace,
    `state.traces[0]`; the record is then None).
    """
    state = _init_lanes(problem, [config], [seed], x0)
    with np.errstate(over="ignore", invalid="ignore"):
        step(state)
    return state, first_record(state)


def first_record(state):
    """The record of lane 0's first iteration, built from its row of the state's record
    store; None if the lane took no step."""
    blocks = state.records[0]
    return _records(blocks[0][:1], state.h.shape[0])[0] if blocks else None


def edit_records(trace, k, **fields):
    """`trace` with the `fields` of record k replaced, in a copy of its table (a field
    name of `IterationRecord` other than k, and its new value)."""
    table = trace.table.copy()
    x, u, v, d, scalars = record_fields(table, len(trace.x_final))
    columns = dict(x=x, u=u, v=v, d=d, **dict(zip(RECORD_SCALARS, scalars.T)))
    for name, value in fields.items():
        columns[name][k] = value
    return dataclasses.replace(trace, table=table)


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


def _factors(H, J, failures: str):
    """`linalg.factor_step(H, J)`; raises the first failure of its `failures` map."""
    factors = linalg.factor_step(np.ascontiguousarray(H, dtype=float), np.ascontiguousarray(J, dtype=float))
    failed = getattr(factors, failures)
    if failed:
        raise failed[min(failed)]
    return factors


def kkt_step(H, J, g, c):
    """(p, y, u, v, sigma_min) of one (H, J, g, c), or of each lane of a stack, from a fresh
    `factor_step`, `solve_step` and `sqp_multiplier` (below): (p, y) solves the Newton SQP system
    [[H, J'], [J, 0]] [p; y] = -[g; c] and p = u + v.  Raises the first failure of the
    factorization."""
    H, g, c = (np.ascontiguousarray(a, dtype=float) for a in (H, g, c))
    factors = _factors(H, J, "step_failed")
    u, v = linalg.solve_step(H, g, c, factors)
    p = u + v
    return p, sqp_multiplier(H, g, p, factors), u, v, factors.sigma_min


def sqp_multiplier(H, g, p, factors):
    """y of the Newton SQP system [[H, J'], [J, 0]] [p; y] = -[g; c], given its step p = u + v
    from `linalg.solve_step` with `factors`: y = -U ((Vr' (g + H p)) / s), per lane for a
    stack.  DimensionMismatch for a g or p that does not fit the factors' J."""
    f = factors
    if g.shape != f.J.shape[:-2] + f.J.shape[-1:] or p.shape != g.shape:
        raise DimensionMismatch(f"g has shape {g.shape} and p {p.shape}; J has shape {f.J.shape}")
    return (-f.U @ ((f.Vr.mT @ (g[..., None] + H @ p[..., None])) / f.s[..., None]))[..., 0]


def lsq_multiplier(J, grad):
    """`least_squares_multiplier` of one (J, grad), or of each lane of a stack, from a fresh
    `factor_step`; raises the first rank failure of the multiplier's factors."""
    J = np.ascontiguousarray(J, dtype=float)
    factors = _factors(np.eye(J.shape[-1]), J, "mult_failed")
    return linalg.least_squares_multiplier(np.ascontiguousarray(grad, dtype=float), factors)


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
    y = lsq_multiplier(jac, grad)
    return float(np.abs(c).max()), float(np.abs(grad + jac.T @ y).max()), y
