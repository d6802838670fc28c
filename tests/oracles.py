"""Independent oracles shared by the test modules.

These deliberately avoid the library's null-space construction: the KKT oracle
factors the dense augmented saddle-point matrix directly, and the backtracking
oracle replays the search loop from its written definition.
"""

import numpy as np


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
