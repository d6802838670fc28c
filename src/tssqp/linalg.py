"""Dense linear algebra for the SQP step.

The construction route follows one pass: an orthogonal factorization (SVD) of
J yields the null-space basis Z, the minimum-norm normal component v solving
J v = -c, the tangential component u from the reduced system
(Z' H Z) w = -Z' (g + H v), and a gradient's least-squares multiplier.  The
dense solve of the augmented saddle-point matrix and the multiplier y of the
Newton SQP system exist only in the test suite, as independent oracles.

`factor_step(H, J)` is the one call that factors what depends on (H, J)
alone, for the step and the multiplier (`Factors`): the full SVD, the rank
test, Z and Z' H Z with its Cholesky check, and the reduced SVD (for m >= 2
the full and the reduced SVD can differ in the last bits).  Passed the
factors of its last call, it returns them while J keeps its bytes, and the
second time adds one LU of Z' H Z per lane (`factor_reduced_lu`, see "Reused
LU").  The kernels apply the factors, with the same bits either way:
`solve_step` gives the split step (u, v) and `least_squares_multiplier` the
multiplier of a gradient; each raises DimensionMismatch for a vector that
does not fit J.  The lanes that fail are in the factors' {lane: exception}
maps (key 0 for a single J), the form in which every layer reports them.  J
counts as rank deficient when sigma_min(J) <= max(1e-10 * sigma_max(J), 1e-14).

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
found, the stack keeps the stacked solve.

That stacked solve calls numpy's `solve` gufunc (`numpy.linalg._umath_linalg`)
with the `"dd->d"` signature `np.linalg.solve` gives it for float64 input, so
it has the same bits without the wrapper's checks and `errstate` (about 4 us
per call at k <= 3).  The gufunc clears the floating-point status when the
solve succeeds, and `factor_step`'s Cholesky check keeps Z' H Z nonsingular.
That check is one call of the `cholesky_lo` gufunc for the stack, whose NaN
fill names the lanes that are not positive definite.
"""

from __future__ import annotations

import ctypes
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

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
        lib = ctypes.CDLL(_umath_linalg.__file__)
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
    except (OSError, AttributeError):
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


class Factors(NamedTuple):
    """The factors of J (m, n), or of each J of a (B, m, n) stack, for the step and the multiplier.

    The step takes the full SVD J = U diag(s) [Vr Z]' (Vr and Z views of its
    Vt; Z and Ared None when m = n) and Ared = Z' H Z; the multiplier takes
    `mult`, the reduced SVD (U, s, Vt), made of the full SVD's arrays when
    m = 1 (for one row they have its bits).  `mult_failed` maps the lanes
    that fail the rank test of `mult`, `step_failed` those that fail it on s
    or whose Ared is not positive definite; a failed lane's factors are
    meaningless.  `lu` is None until `factor_step` serves the factors a
    second time; then it holds one `_LU` of Ared per lane, or is empty where
    the solve stays the stacked one.
    """

    J: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vr: np.ndarray
    Z: np.ndarray | None
    Ared: np.ndarray | None
    mult: tuple[np.ndarray, np.ndarray, np.ndarray]
    mult_failed: dict[int, Exception]
    step_failed: dict[int, Exception]
    lu: list[_LU] | None = None

    @property
    def sigma_min(self) -> np.ndarray:
        """sigma_min(J) of each lane."""
        return self.s[..., -1]


def factor_step(H: np.ndarray, J: np.ndarray, cached: Factors | None = None) -> Factors:
    """The `Factors` of J (m, n) or of each J of a (B, m, n) stack, with the model matrix H (n, n).

    `cached` is None or the factors of an earlier call with this H, cut to
    the lanes of J.  If J has their J's bytes they are returned, the first
    time with `lu` filled, so a J seen only once never pays for the LU.
    DimensionMismatch unless m <= n and H is n x n.
    """
    if cached is not None and cached.J.tobytes() == J.tobytes():
        return cached if cached.lu is not None else factor_reduced_lu(cached)
    m, n = J.shape[-2:]
    if m > n:
        raise DimensionMismatch(f"J is {m}x{n}; need m <= n")
    if H.shape != (n, n):
        raise DimensionMismatch(f"H has shape {H.shape}, expected ({n}, {n})")
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    rank_failed = _rank_failures(s, m)
    step_failed = dict(rank_failed)
    Z = Ared = None
    if m < n:
        Zt = Vt[..., m:, :]
        Z = Zt.mT
        Ared = Zt @ H @ Z
        # the gufunc fills a matrix it cannot factor with NaN and flags it invalid
        with np.errstate(invalid="ignore"):
            corner = _umath_linalg.cholesky_lo(Ared, signature="d->d")[..., 0, 0]
        for i, l00 in enumerate(np.ravel(corner).tolist()):
            if math.isnan(l00):
                step_failed.setdefault(i, IndefiniteReducedHessian("Z' H Z is not positive definite"))
    Vr = Vt[..., :m, :].mT
    if m == 1:
        mult, mult_failed = (U, s, Vr.mT), rank_failed
    else:
        mult = tuple(np.linalg.svd(J, full_matrices=False))
        mult_failed = _rank_failures(mult[1], m)
    return Factors(J, U, s, Vr, Z, Ared, mult, mult_failed, step_failed)


def factor_reduced_lu(factors: Factors) -> Factors:
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


def solve_step(H: np.ndarray, g: np.ndarray, c: np.ndarray, factors: Factors) -> tuple[np.ndarray, np.ndarray]:
    """The split step (u, v) of g (n,) and c (m,), or of each lane of a stack, from `factors`.

    v is the minimum-norm solution of J v = -c in Range(J'), and u in Null(J)
    solves the reduced system (Z' H Z) w = -Z' (g + H v), u = Z w; u + v is
    the step p of the Newton SQP system [[H, J'], [J, 0]] [p; y] = -[g; c].
    The factors must be those of `factor_step` for this H and are trusted as
    given, with the arrays.
    """
    f = factors
    if g.shape != f.J.shape[:-2] + f.J.shape[-1:] or c.shape != f.J.shape[:-1]:
        raise DimensionMismatch(f"g has shape {g.shape} and c {c.shape}; J has shape {f.J.shape}")
    # column vectors (..., k, 1) throughout, one matvec per lane
    g = g[..., None]
    v = -f.Vr @ ((f.U.mT @ c[..., None]) / f.s[..., None])
    if f.Z is not None:
        rhs = -(f.Z.mT @ (g + H @ v))
        w = _lu_solve(f.lu, rhs) if f.lu else _umath_linalg.solve(f.Ared, rhs, signature="dd->d")
        u = f.Z @ w
    else:
        u = np.zeros(g.shape)
    return u[..., 0], v[..., 0]


def least_squares_multiplier(grad: np.ndarray, factors: Factors) -> np.ndarray:
    """y = argmin_y ||grad + J' y||_2 = -(J J')^{-1} J grad for full row rank J, per lane for a stack.

    The factors must be those of `factor_step` for this J and are trusted as given.
    """
    if grad.shape != factors.J.shape[:-2] + factors.J.shape[-1:]:
        raise DimensionMismatch(f"grad has shape {grad.shape}; J has shape {factors.J.shape}")
    U, s, Vt = factors.mult
    return (-U @ ((Vt @ grad[..., None]) / s[..., None]))[..., 0]
