"""Stepsize helpers: the Adagrad-Norm accumulator for beta and the safeguarded
backtracking line search on the constraint violation.  `solver.step` holds the
one rule that turns them into (beta, alpha range) for each strategy.

The line search never consults gradient information (stochastic or exact);
it only evaluates the constraint map at its trial points, through a
constraint-only oracle, and takes ||c(x)||_1 at the current point from the
caller.  Its trajectory is therefore identical across noise levels whenever
the constraint dynamics are.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidLineSearchConfig


def adaptive_update(b: float, u_norm_sq: float) -> float:
    """The Adagrad-Norm accumulator for beta: b <- sqrt(b^2 + ||u||^2)."""
    if u_norm_sq < 0:
        raise ValueError("accumulator increments must be nonnegative")
    return math.sqrt(b * b + u_norm_sq)


def backtrack_count_bound(lower: float, upper: float, rho: float) -> int:
    """Ceiling bound on the number of backtracking steps from upper down to lower."""
    if upper <= lower:
        return 1
    return math.ceil(math.log(lower / upper) / math.log(rho)) + 1


def safeguarded_backtrack(
    c_oracle: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: np.ndarray,
    c_l1: float,
    upper: float,
    lower: float,
    xi: float,
    rho: float,
) -> tuple[float, bool, int]:
    """Backtrack from upper until ||c(x + a d)||_1 <= (1 - xi a) ||c(x)||_1.

    `c_l1` is the already-known ||c(x)||_1; `c_oracle(z)` returns c(z) and is
    called once per trial point, never at x itself.  The search halves (by
    rho) while the decrease test fails and a > lower.  If it ends with the
    test certified at some a >= lower, that a is returned with hit_safeguard
    False; otherwise the safeguard returns lower with hit_safeguard True (no
    certificate).  The count of backtracks never exceeds
    ceil(log(lower/upper)/log(rho)) + 1.
    """
    if not (0.0 < lower <= upper):
        raise InvalidLineSearchConfig(f"need 0 < lower <= upper, got lower={lower}, upper={upper}")
    if not (0.0 < xi < 1.0) or not (0.0 < rho < 1.0):
        raise InvalidLineSearchConfig(f"need xi, rho in (0, 1), got xi={xi}, rho={rho}")

    def certified(a: float) -> bool:
        c_trial = np.abs(np.atleast_1d(c_oracle(x + a * d))).sum()
        return float(c_trial) <= (1.0 - xi * a) * c_l1

    alpha_hat = upper
    n_backtracks = 0
    ok = certified(alpha_hat)
    while not ok and alpha_hat > lower:
        alpha_hat *= rho
        n_backtracks += 1
        ok = certified(alpha_hat)
    if ok and alpha_hat >= lower:
        return alpha_hat, False, n_backtracks
    return lower, True, n_backtracks
