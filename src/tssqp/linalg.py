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

The factor functions return, beside the factors, the {lane: exception}
map of the lanes that fail the rank test or the Cholesky check (key 0 for a
single J), the form in which every layer reports lane failures; a failed
lane's factors are meaningless.  `solve_step` and `least_squares_multiplier`
called without factors raise the first failure.  J counts as rank deficient
when sigma_min(J) <= max(1e-10 * sigma_max(J), 1e-14).

Stacks
------
Every kernel also takes a stack of lanes: J of shape (B, m, n) is factored
matrix by matrix, and g, grad of shape (B, n) and c of shape (B, m) are
solved row by row, each against its own J; the solver always passes such a
stack.  Only operations that give each lane the bits of its own call are
used: stacked `svd`, `cholesky` and `solve`, and `matmul` of one matrix per
lane with one vector per lane (never lanes folded into the columns of one
product).  All functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteReducedHessian,
    RankDeficientJacobian,
)

_RANK_RTOL = 1e-10
_RANK_FLOOR = 1e-14


def mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for each lane: matrices (..., r, c) times vectors (..., c), one matvec per lane."""
    return np.matmul(A, x[..., None])[..., 0]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a' b for each lane of two (..., n) stacks; the bits of `a @ b` on each lane."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _check_shapes(J: np.ndarray, n_vecs: dict[str, np.ndarray], H: np.ndarray | None = None) -> None:
    m, n = J.shape[-2:]
    if m > n:
        raise DimensionMismatch(f"J is {m}x{n}; need m <= n")
    if H is not None and H.shape != (n, n):
        raise DimensionMismatch(f"H has shape {H.shape}, expected ({n}, {n})")
    for label, vec in n_vecs.items():
        if vec.shape[-1] != (n if label in ("g", "grad") else m):
            raise DimensionMismatch(f"{label} has length {vec.shape[-1]}")


def _rank_failures(s: np.ndarray, m: int) -> dict[int, Exception]:
    """{lane: RankDeficientJacobian} for the lanes (0 for a single J) whose
    descending singular values s fail the rank test."""
    s = s.reshape(-1, m)
    return {i: RankDeficientJacobian(f"sigma_min(J) = {lo:.3e} <= rank tolerance (sigma_max = {hi:.3e})")
            for i, (hi, lo) in enumerate(zip(s[:, 0].tolist(), s[:, m - 1].tolist()))
            if lo <= _RANK_RTOL * hi or lo <= _RANK_FLOOR}


class StepFactors(NamedTuple):
    """The (H, J)-only part of the step: J = U diag(s) [Vr Z]' and Ared = Z' H Z.

    Vr and Z are views of the full SVD's Vt; Z and Ared are None when m = n.
    For a stack of J every field carries the leading lane axis.
    """

    U: np.ndarray
    s: np.ndarray
    Vr: np.ndarray
    Z: np.ndarray | None
    Ared: np.ndarray | None


def factor_step(H: np.ndarray, J: np.ndarray) -> tuple[StepFactors, dict[int, Exception]]:
    """Full SVD of J (m, n) or of each J in a (B, m, n) stack, rank test, null-space
    basis Z and the reduced Hessian Z' H Z with its Cholesky check.

    Returns the factors and the {lane: exception} map of the lanes that fail.
    """
    m, n = J.shape[-2:]
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    failed = _rank_failures(s, m)
    Z = Ared = None
    if m < n:
        Zt = Vt[..., m:, :]
        Z = Zt.mT
        Ared = Zt @ H @ Z
        try:
            np.linalg.cholesky(Ared)
        except np.linalg.LinAlgError:
            for i, A in enumerate(Ared.reshape(-1, n - m, n - m)):
                try:
                    np.linalg.cholesky(A)
                except np.linalg.LinAlgError:
                    failed.setdefault(i, IndefiniteReducedHessian("Z' H Z is not positive definite"))
    return StepFactors(U, s, Vt[..., :m, :].mT, Z, Ared), failed


def solve_step(
    H: np.ndarray, J: np.ndarray, g: np.ndarray, c: np.ndarray,
    factors: StepFactors | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-pass step computation: returns (p, y, u, v, sigma_min).

    (p, y) solves the Newton SQP system [[H, J'], [J, 0]] [p; y] = -[g; c];
    p = u + v with u in Null(J) and v the minimum-norm solution of J v = -c in
    Range(J').  `factors` must be the factors of `factor_step(H, J)` and are
    trusted as given, with the arrays, and J is not read; when omitted the
    inputs are checked and factored here, and the first failure is raised.
    """
    if factors is None:
        H, J, g, c = (np.ascontiguousarray(a, dtype=float) for a in (H, J, g, c))
        _check_shapes(J, {"g": g, "c": c}, H)
        factors, failed = factor_step(H, J)
        if failed:
            raise failed[min(failed)]
    f = factors
    # column vectors (..., k, 1) throughout, one matvec per lane
    g = g[..., None]
    s = f.s[..., None]
    v = -f.Vr @ ((f.U.mT @ c[..., None]) / s)
    if f.Z is not None:
        w = np.linalg.solve(f.Ared, -(f.Z.mT @ (g + H @ v)))
        u = f.Z @ w
    else:
        u = np.zeros(g.shape)
    p = u + v
    y = -f.U @ ((f.Vr.mT @ (g + H @ p)) / s)
    return p[..., 0], y[..., 0], u[..., 0], v[..., 0], f.s[..., -1]


def factor_multiplier(J: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict[int, Exception]]:
    """Reduced SVD (U, s, Vt) of J or of each J in a stack, and the {lane: exception}
    map of the lanes that fail the rank test."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    return (U, s, Vt), _rank_failures(s, J.shape[-2])


def least_squares_multiplier(
    J: np.ndarray, grad: np.ndarray, factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """y = argmin_y ||grad + J' y||_2 = -(J J')^{-1} J grad for full row rank J.

    `factors` must be the factors of `factor_multiplier(J)` and are trusted as
    given, with the arrays; when omitted the inputs are checked and factored
    here, and the first failure is raised.
    """
    if factors is None:
        J, grad = (np.ascontiguousarray(a, dtype=float) for a in (J, grad))
        _check_shapes(J, {"grad": grad})
        factors, failed = factor_multiplier(J)
        if failed:
            raise failed[min(failed)]
    U, s, Vt = factors
    return (-U @ ((Vt @ grad[..., None]) / s[..., None]))[..., 0]
