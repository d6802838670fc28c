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
a caller may reuse factors while J stays bitwise the same; one that does may
add one LU of Z' H Z per lane with `factor_reduced_lu`, which the solve of w
then reuses (see "Reused LU" below).  The full and the reduced SVD are kept
apart: for m >= 2 their shared factors can differ in the last bits.

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
used: stacked `svd`, `cholesky` and `solve`, `matmul` of one matrix per
lane with one vector per lane (never lanes folded into the columns of one
product), and per-lane `getrs` on a probed LU (below).  All functions are
pure.

Reused LU
---------
`np.linalg.solve` runs LAPACK's `dgesv`, which is `dgetrf` followed by
`dgetrs` (LAPACK Users' Guide, 3rd ed., SIAM 1999), so it factors Z' H Z
again on every call although the matrix stays the same while J does.
`factor_reduced_lu` calls `dgetrf` once per lane and `solve_step` then calls
`dgetrs` per lane, both through ctypes on the LAPACK that numpy's own solve
loads (numpy's wheels bundle an ILP64 OpenBLAS and export it with a
`scipy_` prefix and a `64_` suffix).  The bits agree with `np.linalg.solve`
only where both take the same internal path.  With OpenBLAS 0.3.31 on two
threads they differ at every even k from 100 to 140 and agree at k <= 98 and
k >= 142, and on one thread they agree at every k, as if `dgesv` threaded
its factorization from k^2 >= 10000 and a lone `dgetrf` from k^2 >= 20000.
So the LU is kept only when one fixed right-hand side solved both ways gives
the same bits on every lane; otherwise, or where the symbols cannot be
found, the stack keeps `np.linalg.solve`.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteReducedHessian,
    RankDeficientJacobian,
)

_RANK_RTOL = 1e-10
_RANK_FLOOR = 1e-14

# k* = 32, the smallest k = n - m that takes the reused LU.  A lane's `dgetrs`
# call through ctypes costs 5-25 us at k <= 160, most of it the call itself;
# the stacked solve costs, per lane, on a 2-core x86-64 host with OpenBLAS
# 0.3.31: at B = 1, 18 us at k = 32 against 10 us for the call, 51 against 9
# at k = 48, 371 against 22 at k = 160; at B = 40, 1.8 against 4.6 at k = 8,
# 5.6 against 4.9 at k = 16, 15 against 5 at k = 32.  A slower host of the
# same kind timed the two equal at k = 32 (25.0 against 25.9 us, B = 1) and
# the call twice as fast at k = 48 (24 against 52 us).
_LU_MIN_K = 32


def _bind_lapack():
    """(dgetrf, dgetrs) of the LAPACK behind `np.linalg.solve` (ILP64: int64
    sizes), or None when numpy's linalg module does not expose them."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # (M, N, A, LDA, IPIV, INFO) and (TRANS, N, NRHS, A, LDA, IPIV, B, LDB, INFO)
    getrf.argtypes = [i64, i64, ptr, i64, ptr, i64]
    getrs.argtypes = [ctypes.c_char_p, i64, i64, ptr, i64, ptr, ptr, i64, i64]
    getrf.restype = getrs.restype = None
    return getrf, getrs


_LAPACK = _bind_lapack()


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


class _LU:
    """One lane's LU of a k x k matrix from `dgetrf`, with the arguments of
    `dgetrs` bound once: a solve copies the right-hand side in and makes one
    foreign call.  `info` is `dgetrf`'s (0 when the factorization succeeded)."""

    __slots__ = ("a", "ipiv", "b", "ints", "args", "info")

    def __init__(self, A: np.ndarray) -> None:
        k = A.shape[0]
        self.a = np.array(A, dtype=np.float64, order="F")  # the column-major copy `dgesv` factors
        self.ipiv = np.empty(k, dtype=np.int64)
        self.b = np.empty(k)
        self.ints = (ctypes.c_int64(k), ctypes.c_int64(1), ctypes.c_int64(0))
        n, one, info = (ctypes.byref(i) for i in self.ints)
        a, ipiv, b = (ctypes.c_void_p(x.ctypes.data) for x in (self.a, self.ipiv, self.b))
        _LAPACK[0](n, n, a, n, ipiv, info)
        self.info = self.ints[2].value
        self.args = (ctypes.c_char_p(b"N"), n, one, a, n, ipiv, b, n, info)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r for one (k,) vector r, in a buffer the next solve overwrites."""
        self.b[:] = r
        _LAPACK[1](*self.args)
        return self.b


def _lu_solve(lus: list[_LU], rhs: np.ndarray) -> np.ndarray:
    """Each lane's LU applied to its (k, 1) column of rhs (..., k, 1)."""
    rows = rhs.reshape(-1, rhs.shape[-2])
    return np.stack([lu.solve(r) for lu, r in zip(lus, rows, strict=True)]).reshape(rhs.shape)


class StepFactors(NamedTuple):
    """The (H, J)-only part of the step: J = U diag(s) [Vr Z]' and Ared = Z' H Z.

    Vr and Z are views of the full SVD's Vt; Z and Ared are None when m = n.
    For a stack of J every field carries the leading lane axis.  `lu` is
    None until `factor_reduced_lu` fills it: then it holds one `_LU` of Ared
    per lane, or is empty where the solve stays `np.linalg.solve`.
    """

    U: np.ndarray
    s: np.ndarray
    Vr: np.ndarray
    Z: np.ndarray | None
    Ared: np.ndarray | None
    lu: list[_LU] | None = None


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


def factor_reduced_lu(factors: StepFactors) -> StepFactors:
    """`factors` with `lu` filled, for a caller that will solve with them again.

    Each lane of Ared gets its LU from `dgetrf` when k >= `_LU_MIN_K`, the
    binding exists, and a fixed right-hand side solved with every lane's LU
    gives the bits of `np.linalg.solve`; otherwise `lu` is empty and
    `solve_step` keeps the stacked solve.  Either way `solve_step` returns
    the same bits.  The factors must be free of failed lanes.
    """
    A = factors.Ared
    if _LAPACK is None or A is None or A.shape[-1] < _LU_MIN_K:
        return factors._replace(lu=[])
    k = A.shape[-1]
    lus = [_LU(a) for a in A.reshape(-1, k, k)]
    probe = np.broadcast_to(np.sin(np.arange(1.0, k + 1)), A.shape[:-1])[..., None].copy()
    if any(lu.info for lu in lus) or _lu_solve(lus, probe).tobytes() != np.linalg.solve(A, probe).tobytes():
        lus = []
    return factors._replace(lu=lus)


def solve_step(
    H: np.ndarray, J: np.ndarray, g: np.ndarray, c: np.ndarray,
    factors: StepFactors | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-pass step computation: returns (p, y, u, v, sigma_min).

    (p, y) solves the Newton SQP system [[H, J'], [J, 0]] [p; y] = -[g; c];
    p = u + v with u in Null(J) and v the minimum-norm solution of J v = -c in
    Range(J').  `factors` must be the factors of `factor_step(H, J)`, with or
    without `factor_reduced_lu`, and are trusted as given, with the arrays,
    and J is not read; when omitted the inputs are checked and factored here,
    and the first failure is raised.
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
        rhs = -(f.Z.mT @ (g + H @ v))
        w = _lu_solve(f.lu, rhs) if f.lu else np.linalg.solve(f.Ared, rhs)
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
