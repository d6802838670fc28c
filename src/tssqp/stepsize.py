"""Stepsize regimes: pre-specified schedules, Adagrad-Norm accumulators, and the
safeguarded backtracking line search on the constraint violation.

The line search never consults gradient information (stochastic or exact);
it only evaluates the constraint map at its trial points, through a
constraint-only oracle, and takes ||c(x)||_1 at the current point from the
caller.  Its trajectory is therefore identical across noise levels whenever
the constraint dynamics are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidLineSearchConfig


@dataclass(frozen=True)
class FixedSchedule:
    """Pre-specified stepsize regime.

    For alpha_rule "lower"/"upper" the tangential stepsize is the horizon rule
    beta = eta / sqrt(horizon) and alpha is the corresponding endpoint of
    [nu, nu + theta * beta].  For alpha_rule "backtrack" beta is the constant
    eta (the experiment profile) and alpha comes from the safeguarded
    backtracking search over the same interval.
    """

    nu: float = 1.0
    theta: float = 1.0
    eta: float = 0.1
    horizon: int = 1000
    alpha_rule: str = "lower"

    def __post_init__(self) -> None:
        if self.nu <= 0 or self.theta < 0 or self.eta <= 0 or self.horizon < 1:
            raise ValueError("need nu > 0, theta >= 0, eta > 0, horizon >= 1")
        if self.alpha_rule not in ("lower", "upper", "backtrack"):
            raise ValueError(f"unknown alpha_rule {self.alpha_rule!r}")


def fixed_beta(schedule: FixedSchedule) -> float:
    """Constant tangential stepsize for the schedule.

    eta / sqrt(horizon) in the analysis modes; the plain constant eta when the
    schedule drives a backtracking search (experiment profile).
    """
    if schedule.alpha_rule == "backtrack":
        return schedule.eta
    return schedule.eta / math.sqrt(schedule.horizon)


def fixed_alpha_range(schedule: FixedSchedule, beta: float) -> tuple[float, float]:
    """The admissible interval [nu, nu + theta * beta]."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return schedule.nu, schedule.nu + schedule.theta * beta


@dataclass
class AdaptiveState:
    """Adagrad-Norm accumulators.

    b and q start at b_prev = b0 and q_prev = q0 and grow with the tangential
    step energy and the l1 constraint violation respectively; beta = eta / b
    and alpha ranges over [nu/q, nu/q + min(theta/b, theta/q)].  beta_prev
    (eta / previous b) is kept for diagnostics on the measurable redefinition
    of the true direction; the run starts it at eta / b0.
    """

    eta: float = 0.1
    nu: float = 1.0
    theta: float = 1.0
    b: float = 1.0
    q: float = 1e-9

    def __post_init__(self) -> None:
        if self.eta <= 0 or self.nu <= 0 or self.theta < 0 or self.b <= 0 or self.q <= 0:
            raise ValueError("need eta, nu, b, q > 0 and theta >= 0")
        self.beta_prev = self.eta / self.b


def adaptive_update(
    state: AdaptiveState, u_norm_sq: float, c_norm_1: float
) -> tuple[float, tuple[float, float]]:
    """Advance both accumulators and return (beta, alpha range).

    b <- sqrt(b^2 + ||u||^2), q <- sqrt(q^2 + ||c||_1); beta = eta / b and the
    range is [nu/q, nu/q + min(theta/b, theta/q)].  Mutates state.
    """
    if u_norm_sq < 0 or c_norm_1 < 0:
        raise ValueError("accumulator increments must be nonnegative")
    state.beta_prev = state.eta / state.b
    state.b = math.sqrt(state.b * state.b + u_norm_sq)
    state.q = math.sqrt(state.q * state.q + c_norm_1)
    beta = state.eta / state.b
    lo = state.nu / state.q
    return beta, (lo, lo + min(state.theta / state.b, state.theta / state.q))


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
