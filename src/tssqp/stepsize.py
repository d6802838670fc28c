"""Stepsize helpers: the Adagrad-Norm accumulator for beta and the safeguarded
backtracking line search on the constraint violation.  `solver` holds the
one rule that turns them into (beta, alpha range) for each strategy.

The line search never consults gradient information (stochastic or exact);
it only evaluates the constraint map at its trial points, through a
constraint-only oracle, and takes ||c(x)||_1 at the current point from the
caller.  Its trajectory is therefore identical across noise levels whenever
the constraint dynamics are.

`backtrack_rows` runs the search for a stack of lanes at once, each lane
backtracking until it is certified or safeguarded; `safeguarded_backtrack`
is its one-lane form.
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


def backtrack_rows(
    c_rows: Callable[[np.ndarray], tuple[np.ndarray, dict[int, Exception]]],
    x: np.ndarray,
    d: np.ndarray,
    c_l1: list[float],
    upper: list[float],
    lower: list[float],
    xi: float,
    rho: float,
) -> tuple[list[float], list[bool], list[int], dict[int, Exception]]:
    """The safeguarded search of each lane (row) of x, d (B, n), given c_l1, upper, lower per lane.

    Each round evaluates `c_rows(z)` once at the trial points of the lanes
    still searching; it returns their c (rows of z) and the {row of z:
    exception} map of the rows whose value failed.  A lane with a failed
    trial value stops there.  The arguments are trusted (0 < lower <= upper,
    xi and rho in (0, 1)).  Returns per lane (alpha, hit_safeguard,
    n_backtracks) and the {lane: exception} map of the lanes that stopped on
    a failed trial value.
    """
    alpha = list(upper)
    hit = [True] * len(alpha)
    count = [0] * len(alpha)
    failed: dict[int, Exception] = {}
    rows = list(range(len(alpha)))
    z = x + np.array(alpha)[:, None] * d
    while True:
        c, bad = c_rows(z)
        trial = np.abs(c).sum(axis=1).tolist()
        failed.update((rows[j], e) for j, e in bad.items())
        searching = []
        for i, c_trial in zip(rows, trial):
            a_i = alpha[i]
            if i in failed:
                continue
            if c_trial <= (1.0 - xi * a_i) * c_l1[i]:
                if a_i >= lower[i]:
                    hit[i] = False
                else:
                    alpha[i] = lower[i]
            elif a_i > lower[i]:
                alpha[i] = a_i * rho
                count[i] += 1
                searching.append(i)
            else:
                alpha[i] = lower[i]
        if not searching:
            return alpha, hit, count, failed
        a = np.array([alpha[i] for i in searching])[:, None]
        if len(searching) == len(alpha):
            z = x + a * d
        else:
            index = np.array(searching)
            z = x[index] + a * d[index]
        rows = searching


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

    def c_rows(z: np.ndarray) -> tuple[np.ndarray, dict]:
        return np.atleast_1d(np.asarray(c_oracle(z[0]), dtype=float))[None], {}

    alpha, hit, count, _ = backtrack_rows(
        c_rows, np.asarray(x, dtype=float)[None], np.asarray(d, dtype=float)[None],
        [float(c_l1)], [float(upper)], [float(lower)], xi, rho,
    )
    return alpha[0], hit[0], count[0]
