"""Dense linear algebra for the SQP step.

The construction route follows one pass: an orthogonal factorization (SVD) of
J yields the null-space basis Z, the minimum-norm normal component v solving
J v = -c, the tangential component u from the reduced system
(Z' H Z) w = -Z' (g + H v), and the multiplier y as the least-squares solution
of the first KKT block.  The direct dense solve of the augmented saddle-point
matrix exists only in the test suite as an independent oracle.

Each kernel comes in two parts.  `factor_step(H, J)` does everything that
depends on (H, J) alone: the full SVD, the rank test, Z and Z' H Z with its
Cholesky check.  `solve_step` does the per-iteration arithmetic for v, w, u,
p and y from those factors.  Likewise `factor_multiplier(J)` takes the
reduced SVD that `least_squares_multiplier` applies to a gradient.  Given
factors of the same (H, J), the solves give the same bits as without them, so
a caller may reuse factors while J stays bitwise the same.  The full and the
reduced SVD are kept apart: for m >= 2 their shared factors can differ in
the last bits.

All functions are pure.  J counts as rank deficient when
sigma_min(J) <= max(1e-10 * sigma_max(J), 1e-14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteReducedHessian,
    RankDeficientJacobian,
)

_RANK_RTOL = 1e-10
_RANK_FLOOR = 1e-14


@dataclass(frozen=True)
class KktSolution:
    """Solution (p, y) of the Newton SQP system [[H, J'], [J, 0]] [p; y] = -[g; c]."""

    p: np.ndarray
    y: np.ndarray


def _check_shapes(J: np.ndarray, n_vecs: dict[str, np.ndarray], H: np.ndarray | None = None) -> None:
    m, n = J.shape
    if m > n:
        raise DimensionMismatch(f"J is {m}x{n}; need m <= n")
    if H is not None and H.shape != (n, n):
        raise DimensionMismatch(f"H has shape {H.shape}, expected ({n}, {n})")
    for label, vec in n_vecs.items():
        if vec.shape[0] != (n if label in ("g", "grad") else m):
            raise DimensionMismatch(f"{label} has length {vec.shape[0]}")


def _singular_range(s: np.ndarray, m: int) -> tuple[float, float]:
    """(sigma_min, sigma_max) of J from its descending singular values s.

    Raises RankDeficientJacobian when J fails the rank test.
    """
    smax = s[0]
    smin = s[m - 1]
    if smin <= max(_RANK_RTOL * smax, _RANK_FLOOR):
        raise RankDeficientJacobian(f"sigma_min(J) = {smin:.3e} <= rank tolerance (sigma_max = {smax:.3e})")
    return smin, smax


class StepFactors(NamedTuple):
    """The (H, J)-only part of the step: J = U diag(s) [Vr Z]' and Ared = Z' H Z.

    Vr and Z are views of the full SVD's Vt; Z and Ared are None when m = n.
    """

    U: np.ndarray
    s: np.ndarray
    Vr: np.ndarray
    Z: np.ndarray | None
    Ared: np.ndarray | None
    sigma_min: float
    sigma_max: float


def factor_step(H: np.ndarray, J: np.ndarray) -> StepFactors:
    """Full SVD of J, rank test, null-space basis Z and the reduced Hessian Z' H Z.

    Raises RankDeficientJacobian when J fails the rank test and
    IndefiniteReducedHessian when Z' H Z fails its Cholesky factorization.
    """
    H = np.ascontiguousarray(H, dtype=float)
    J = np.ascontiguousarray(J, dtype=float)
    _check_shapes(J, {}, H)
    m, n = J.shape
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    smin, smax = _singular_range(s, m)
    Z = Ared = None
    if m < n:
        Z = Vt[m:, :].T
        Ared = Z.T @ H @ Z
        try:
            np.linalg.cholesky(Ared)
        except np.linalg.LinAlgError:
            raise IndefiniteReducedHessian("Z' H Z is not positive definite") from None
    return StepFactors(U=U, s=s, Vr=Vt[:m, :].T, Z=Z, Ared=Ared, sigma_min=smin, sigma_max=smax)


def solve_step(
    H: np.ndarray, J: np.ndarray, g: np.ndarray, c: np.ndarray,
    factors: StepFactors | None = None,
) -> tuple[KktSolution, np.ndarray, np.ndarray, float, float]:
    """One-pass step computation: returns (KktSolution, u, v, sigma_min, sigma_max).

    p = u + v with u in Null(J) and v the minimum-norm solution of J v = -c in
    Range(J').  `factors` must be `factor_step(H, J)`; when omitted it is
    computed here, raising as `factor_step` does.
    """
    H = np.ascontiguousarray(H, dtype=float)
    J = np.ascontiguousarray(J, dtype=float)
    g = np.ascontiguousarray(g, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    _check_shapes(J, {"g": g, "c": c}, H)
    f = factor_step(H, J) if factors is None else factors
    v = -f.Vr @ ((f.U.T @ c) / f.s)
    if f.Z is not None:
        w = np.linalg.solve(f.Ared, -(f.Z.T @ (g + H @ v)))
        u = f.Z @ w
    else:
        u = np.zeros(J.shape[1])
    p = u + v
    y = -f.U @ ((f.Vr.T @ (g + H @ p)) / f.s)
    return KktSolution(p=p, y=y), u, v, f.sigma_min, f.sigma_max


def factor_multiplier(J: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced SVD (U, s, Vt) of J after the rank test; raises RankDeficientJacobian."""
    J = np.ascontiguousarray(J, dtype=float)
    _check_shapes(J, {})
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    _singular_range(s, J.shape[0])
    return U, s, Vt


def least_squares_multiplier(
    J: np.ndarray, grad: np.ndarray, factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """y = argmin_y ||grad + J' y||_2 = -(J J')^{-1} J grad for full row rank J.

    `factors` must be `factor_multiplier(J)`; when omitted it is computed here.
    """
    J = np.ascontiguousarray(J, dtype=float)
    grad = np.ascontiguousarray(grad, dtype=float)
    _check_shapes(J, {"grad": grad})
    U, s, Vt = factor_multiplier(J) if factors is None else factors
    return -U @ ((Vt @ grad) / s)
