import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tssqp import (
    DimensionMismatch,
    IndefiniteReducedHessian,
    RankDeficientJacobian,
    SolverConfig,
    evaluate,
    linalg,
    load_problem,
    run,
)
from tssqp.linalg import factor_reduced_lu, factor_step, least_squares_multiplier, solve_step
from oracles import (
    augmented_solve,
    first_iteration,
    kkt_step,
    lsq_multiplier,
    null_space_oracle,
    pinv_normal_component,
    random_instance,
    sqp_multiplier,
)

TOL = 1e-8


def normal_part(J, c):
    """v from solve_step; it depends on J and c only, so H = I and g = 0 serve."""
    n = J.shape[1]
    return kkt_step(np.eye(n), J, np.zeros(n), c)[3]


def null_space_projector(J):
    """Z Z' from solve_step: with H = I and c = 0 the tangential step is u = -Z Z' g."""
    m, n = J.shape
    return -np.column_stack([kkt_step(np.eye(n), J, e, np.zeros(m))[2] for e in np.eye(n)])


class TestSolveNewtonKkt:
    def test_pure_null_space_step(self):
        sol_p, sol_y, *_ = kkt_step(np.eye(2), np.array([[1.0, 0.0]]),
                             np.array([0.0, 1.0]), np.array([0.0]))
        np.testing.assert_allclose(sol_p, [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(sol_y, [0.0], atol=1e-12)

    def test_pure_restoration_step(self):
        sol_p, sol_y, *_ = kkt_step(np.eye(2), np.array([[1.0, 0.0]]),
                             np.zeros(2), np.array([2.0]))
        np.testing.assert_allclose(sol_p, [-2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol_y, [2.0], atol=1e-12)

    def test_mixed_step_against_dense_oracle(self):
        H = 2.0 * np.eye(2)
        J = np.array([[1.0, 1.0]])
        g = np.array([1.0, 0.0])
        c = np.array([1.0])
        sol_p, sol_y, *_ = kkt_step(H, J, g, c)
        np.testing.assert_allclose(sol_p, [-0.75, -0.25], atol=1e-12)
        np.testing.assert_allclose(sol_y, [0.5], atol=1e-12)
        p_ref, y_ref = augmented_solve(H, J, g, c)
        np.testing.assert_allclose(sol_p, p_ref, atol=1e-12)
        np.testing.assert_allclose(sol_y, y_ref, atol=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientJacobian):
            kkt_step(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]]),
                       np.zeros(2), np.zeros(2))

    def test_indefinite_reduced_hessian_raises(self):
        with pytest.raises(IndefiniteReducedHessian):
            kkt_step(-np.eye(2), np.array([[1.0, 0.0]]),
                       np.zeros(2), np.zeros(1))

    def test_square_jacobian_has_no_tangential_part(self):
        H = np.eye(2)
        J = np.array([[2.0, 0.0], [0.0, 3.0]])
        c = np.array([1.0, 2.0])
        sol_p, sol_y, u, v, _ = kkt_step(H, J, np.array([5.0, -1.0]), c)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)
        np.testing.assert_allclose(J @ sol_p, -c, atol=1e-12)

    def test_random_instance_against_dense_oracle(self):
        rng = np.random.default_rng(31)
        H, J, g, c = random_instance(rng)
        sol_p, sol_y, *_ = kkt_step(H, J, g, c)
        p_ref, y_ref = augmented_solve(H, J, g, c)
        np.testing.assert_allclose(sol_p, p_ref, atol=1e-9)
        np.testing.assert_allclose(sol_y, y_ref, atol=1e-9)

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            kkt_step(np.eye(3), np.array([[1.0, 0.0]]), np.zeros(2), np.zeros(1))
        with pytest.raises(DimensionMismatch):
            factor_step(np.eye(1), np.ones((2, 1)))
        # the vectors must fit the factors' J: a length-1 g would broadcast over all n rows
        J = np.array([[1.0, 0.0]])
        with pytest.raises(DimensionMismatch, match=r"g has shape \(1,\)"):
            kkt_step(np.eye(2), J, np.zeros(1), np.zeros(1))
        with pytest.raises(DimensionMismatch, match=r"c \(2,\)"):
            kkt_step(np.eye(2), J, np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionMismatch, match=r"grad has shape \(1,\)"):
            lsq_multiplier(J, np.zeros(1))
        factors = factor_step(np.eye(2), J)
        with pytest.raises(DimensionMismatch, match=r"p \(1,\)"):
            sqp_multiplier(np.eye(2), np.zeros(2), np.zeros(1), factors)
        # and a stack needs one vector per lane
        stack = factor_step(np.eye(2), np.stack([J, J]))
        with pytest.raises(DimensionMismatch, match=r"g has shape \(3, 2\)"):
            solve_step(np.eye(2), np.zeros((3, 2)), np.zeros((2, 1)), stack)


class TestNullSpaceBasis:
    def test_axis_aligned(self):
        P = null_space_projector(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(P, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_symmetric(self):
        P = null_space_projector(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_random_rectangular(self):
        # an orthogonal projector of rank n - m onto a subspace of Null(J)
        rng = np.random.default_rng(3)
        J = rng.normal(size=(3, 7))
        P = null_space_projector(J)
        np.testing.assert_allclose(P, P.T, atol=1e-10)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)
        assert np.trace(P) == pytest.approx(4.0, abs=1e-10)
        assert np.abs(J @ P).max() <= 1e-10

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientJacobian):
            null_space_projector(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestNormalComponent:
    def test_single_coordinate(self):
        np.testing.assert_allclose(
            normal_part(np.array([[1.0, 0.0]]), np.array([2.0])), [-2.0, 0.0], atol=1e-12
        )

    def test_feasible_point(self):
        np.testing.assert_allclose(
            normal_part(np.array([[1.0, 1.0]]), np.array([0.0])), [0.0, 0.0], atol=1e-14
        )

    def test_against_pseudoinverse_oracle(self):
        J = np.array([[1.0, 1.0]])
        c = np.array([2.0])
        v = normal_part(J, c)
        np.testing.assert_allclose(v, [-1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(v, pinv_normal_component(J, c), atol=1e-12)


class TestTangentialComponent:
    @pytest.mark.parametrize("p, J, c, expected", [
        ([0.0, -1.0], [[1.0, 0.0]], [0.0], [0.0, -1.0]),
        ([-2.0, 0.0], [[1.0, 0.0]], [2.0], [0.0, 0.0]),
        # subtract the oracle v = (-1/2, -1/2); J u = 0 must hold
        ([-0.75, -0.25], [[1.0, 1.0]], [1.0], [-0.25, 0.25]),
    ])
    def test_examples(self, p, J, c, expected):
        # with H = I and g = -p the KKT solution is (p, 0); u must be p - v
        p, J = np.array(p), np.array(J)
        sol_p, sol_y, u, v, _ = kkt_step(np.eye(2), J, -p, np.array(c))
        np.testing.assert_allclose(sol_p, p, atol=1e-12)
        np.testing.assert_allclose(u, expected, atol=1e-12)
        np.testing.assert_allclose(u, p - v, atol=1e-12)
        assert np.abs(J @ u).max() <= 1e-12


class TestComposeDirection:
    """The direction an iteration takes: d = beta * u + v, or beta * p for ablation."""

    @staticmethod
    def _step(strategy="linesearch", x0=None, **kwargs):
        pb = load_problem("qp2")
        config = SolverConfig(strategy=strategy, **kwargs)
        return first_iteration(pb, config, x0=x0)[1]

    def test_scaled_tangential(self):
        # feasible start: v = 0 and d is the tangential step scaled by beta
        rec = self._step(x0=np.array([1.0, 0.7]), eta=0.1)
        np.testing.assert_array_equal(rec.v, [0.0, 0.0])
        np.testing.assert_allclose(rec.u, [0.0, -0.7], atol=1e-15)
        np.testing.assert_array_equal(rec.d, 0.1 * rec.u)

    def test_restoration_unaffected_by_beta(self):
        # at the origin the gradient is 0, so u = 0 and d = v for every beta
        for eta in (1e-3, 1.0, 17.0):
            rec = self._step(x0=np.zeros(2), eta=eta)
            np.testing.assert_array_equal(rec.d, rec.v)
            np.testing.assert_allclose(rec.d, [1.0, 0.0], atol=1e-15)

    def test_componentwise(self):
        pb = load_problem("sphere3")
        for strategy, rule in (("fixed", "lower"), ("fixed", "backtrack"), ("adaptive", "upper"),
                               ("linesearch", "lower"), ("ablation", "lower")):
            config = SolverConfig(strategy=strategy, alpha_rule=rule, max_iters=20,
                                  noise=0.1)
            for rec in run(pb, config, seed=3).records:
                if strategy == "ablation":
                    # the step forms p = u + v
                    np.testing.assert_array_equal(rec.d, rec.beta * (rec.u + rec.v))
                else:
                    np.testing.assert_array_equal(rec.d, rec.beta * rec.u + rec.v)

    def test_nonpositive_beta(self):
        # a denormal eta underflows beta = eta / sqrt(max_iters) to 0
        config = SolverConfig(strategy="fixed", eta=5e-324)
        trace = run(load_problem("qp2"), config)
        assert (trace.fail_reason, trace.iterations) == ("stepsize_underflow", 0)


class TestLeastSquaresMultiplier:
    def test_axis_aligned(self):
        y = lsq_multiplier(np.array([[1.0, 0.0]]), np.array([2.0, 5.0]))
        np.testing.assert_allclose(y, [-2.0], atol=1e-12)

    def test_zero_gradient(self):
        np.testing.assert_allclose(
            lsq_multiplier(np.array([[1.0, 1.0]]), np.zeros(2)), [0.0], atol=1e-14
        )

    def test_against_normal_equations_oracle(self):
        J = np.array([[1.0, 1.0]])
        grad = np.array([1.0, 3.0])
        y = lsq_multiplier(J, grad)
        np.testing.assert_allclose(y, [-2.0], atol=1e-12)
        resid = grad + J.T @ y
        np.testing.assert_allclose(resid, [-1.0, 1.0], atol=1e-12)
        # residual orthogonal to Range(J')
        assert np.abs(J @ resid).max() <= 1e-12
        y_ref = -np.linalg.solve(J @ J.T, J @ grad)
        np.testing.assert_allclose(y, y_ref, atol=1e-12)


class TestReusedFactors:
    """Factors of one (H, J) applied to many (g, c) give the bits of a fresh factorization."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_fresh_factorization(self, seed):
        rng = np.random.default_rng(seed)
        H, J, _, _ = random_instance(rng)
        if seed == 0:  # square J: no null space
            J = rng.normal(size=(3, 3))
            H = np.eye(3)
        m, n = J.shape
        factors = factor_step(H, J)
        assert factors.step_failed == factors.mult_failed == {}
        for _ in range(5):
            g, c = rng.normal(size=n), rng.normal(size=m)
            fresh = kkt_step(H, J, g, c)
            u, v = solve_step(H, g, c, factors)
            reused = (u + v, sqp_multiplier(H, g, u + v, factors), u, v, factors.sigma_min)
            for a, b in zip(fresh, reused):  # p, y, u, v, sigma_min
                assert a.tobytes() == b.tobytes()
            assert lsq_multiplier(J, g).tobytes() == least_squares_multiplier(g, factors).tobytes()

    def test_cached_factors_are_kept_while_j_keeps_its_bytes(self):
        # the second call with the same bytes adds the reused LU, later ones return the factors
        rng = np.random.default_rng(6)
        n = linalg._LU_MIN_K + 2
        M = rng.normal(size=(n, n))
        H, J = np.eye(n) + M @ M.T / n, rng.normal(size=(2, 2, n))
        first = factor_step(H, J)
        assert first.lu is None
        second = factor_step(H, J.copy(), first)
        assert second.lu is not None and second.U is first.U
        assert factor_step(H, J, second) is second
        moved = J.copy()
        moved[1, 0, 0] += 1.0
        fresh = factor_step(H, moved, second)
        assert fresh.lu is None and fresh.U[1].tobytes() != first.U[1].tobytes()

    def test_full_svd_serves_the_multiplier_when_m_is_1(self):
        # The solver takes the multiplier factors of a one-row J from the step's
        # full SVD; that needs the full and reduced SVDs to agree bitwise.
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5, 8, 20, 60, 200):
            J = rng.normal(size=(40, 1, n)) * 10.0 ** rng.integers(-6, 6, size=(40, 1, 1))
            J[::7, 0, 0] = 0.0
            U, s, Vt = np.linalg.svd(J, full_matrices=True)
            Ur, sr, Vtr = np.linalg.svd(J, full_matrices=False)
            assert U.tobytes() == Ur.tobytes() and s.tobytes() == sr.tobytes()
            assert np.ascontiguousarray(Vt[:, :1]).tobytes() == Vtr.tobytes()

    def test_factorization_failures_are_reported_and_raised_by_the_solves(self):
        deficient = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        factors = factor_step(np.eye(3), deficient)
        for failed in (factors.step_failed, factors.mult_failed):
            assert list(failed) == [0] and isinstance(failed[0], RankDeficientJacobian)
        factors = factor_step(np.diag([1.0, -1.0]), np.array([[1.0, 0.0]]))
        assert list(factors.step_failed) == [0] and isinstance(factors.step_failed[0], IndefiniteReducedHessian)
        assert factors.mult_failed == {}
        assert factor_step(None, np.array([[1.0, 0.0]])).step_failed == {}  # only an explicit H is checked
        with pytest.raises(RankDeficientJacobian):
            kkt_step(np.eye(3), deficient, np.zeros(3), np.zeros(2))
        with pytest.raises(RankDeficientJacobian):
            lsq_multiplier(deficient, np.zeros(3))
        with pytest.raises(IndefiniteReducedHessian):
            kkt_step(np.diag([1.0, -1.0]), np.array([[1.0, 0.0]]), np.zeros(2), np.zeros(1))

    def test_stacked_failures_are_keyed_by_lane(self):
        H = np.diag([1.0, -1.0])
        cases = [
            # Z'HZ = -1 on lane 0, +1 on lane 2; lane 1's J is zero
            ([[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]]],
             {0: IndefiniteReducedHessian, 1: RankDeficientJacobian}, {1: RankDeficientJacobian}),
            # only the middle lane's Z'HZ (-1) fails the Cholesky check
            ([[[0.0, 1.0]], [[1.0, 0.0]], [[0.6, 0.8]]], {1: IndefiniteReducedHessian}, {}),
        ]
        assert np.geterr()["invalid"] == "warn"
        for J, step_failed, mult_failed in cases:
            J = np.array(J)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the check's NaN fill raises no floating-point warning
                factors = factor_step(H, J)
            assert {i: type(e) for i, e in factors.step_failed.items()} == step_failed
            assert {i: type(e) for i, e in factors.mult_failed.items()} == mult_failed
            for i in sorted(set(range(len(J))) - set(step_failed)):  # the other lanes get their solo factors
                solo = factor_step(H, J[i])
                assert solo.step_failed == solo.mult_failed == {}
                for lane, alone in zip((factors.J, factors.U, factors.s, factors.Vr, factors.Z, factors.Ared,
                                        *factors.mult), (*solo[:6], *solo.mult)):
                    assert lane[i].tobytes() == alone.tobytes()


class TestIdentityModelMatrix:
    """H None is the identity: it skips the products with H and the Cholesky check, with the bits of np.eye(n)."""

    @staticmethod
    def _stack(B, n, m):
        """Seeded J (B, m, n), g (B, n) and c (B, m); the first rows of g and c hold exact
        0.0 and -0.0 entries, and row 1 (of a stack of more) is all zeros of either sign."""
        rng = np.random.default_rng([B, n, m])
        J, g, c = rng.normal(size=(B, m, n)), rng.normal(size=(B, n)), rng.normal(size=(B, m))
        g[0, ::3], g[0, 1::3], c[0, ::2] = 0.0, -0.0, -0.0
        if B > 1:
            g[1], c[1, ::2], c[1, 1::2] = -0.0, 0.0, -0.0
        return J, g, c

    @pytest.mark.parametrize("B", [1, 40])
    @pytest.mark.parametrize("n, m", [(5, 1), (50, 1), (50, 10), (200, 1), (200, 40)])
    def test_byte_equal_to_the_identity_matrix(self, B, n, m):
        J, g, c = self._stack(B, n, m)
        identity, eye = factor_step(None, J), factor_step(np.eye(n), J)
        assert identity.step_failed == eye.step_failed == {} and identity.mult_failed == eye.mult_failed == {}
        for a, b in zip((*identity[:6], *identity.mult), (*eye[:6], *eye.mult)):
            assert a.tobytes() == b.tobytes()
        # fresh, and with the reused LU where the size rule takes it
        for once, again in ((identity, eye), (factor_reduced_lu(identity), factor_reduced_lu(eye))):
            for a, b in zip(solve_step(None, g, c, once), solve_step(np.eye(n), g, c, again)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("binding, m", [("_svd_full", 1), ("_svd_full", 2), ("_svd_reduced", 2)])
    def test_nan_singular_values_raise_linalg_error(self, monkeypatch, binding, m):
        # the gufunc fills the outputs of an SVD that did not converge with NaN
        def unconverged(J, svd=getattr(linalg, binding), **kwargs):
            U, s, Vt = svd(J, **kwargs)
            return U, np.where(np.arange(len(J))[:, None] == 1, np.nan, s), Vt

        monkeypatch.setattr(linalg, binding, unconverged)
        J = np.random.default_rng(3).normal(size=(3, m, 4))
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            factor_step(None, J)

    def test_an_svd_that_does_not_converge_raises_linalg_error(self):
        # a NaN entry fails LAPACK's SVD; the gufunc fills the lane with NaN and flags it invalid
        J = np.random.default_rng(4).normal(size=(3, 2, 4))
        J[1, 0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            factor_step(None, J)


LU_KS = (1, 2, 3, 8, 48, 100, 120, 140, 160, 300)
TESTS = Path(__file__).resolve().parent


def lu_bit_cases() -> list[dict]:
    """`solve_step` with and without `factor_reduced_lu`, compared bit for bit.

    Every k of LU_KS takes the LU and its probe (the size rule is lifted), on
    a stack of two lanes whose Z'HZ are random SPD k x k matrices; the last
    case is golden_wide's Z'HZ (k = 48).  Each case reports whether the probe
    kept the LU ("lu") or the stacked solve ("solve").  It lifts the size
    rule for the rest of the process, so it runs in a process of its own.
    """
    linalg._LU_MIN_K = 1
    rng = np.random.default_rng(12)
    cases = []
    for k in LU_KS:
        n = k + 2
        M = rng.normal(size=(n, n))
        cases.append((f"spd k={k}", np.eye(n) + M @ M.T / n, rng.normal(size=(2, 2, n)),
                      rng.normal(size=(2, n)), rng.normal(size=(2, 2))))
    pb = load_problem(str(TESTS / "data" / "golden_wide.json"))
    ev = evaluate(pb, pb.x0[None])[0]
    cases.append(("golden_wide k=48", np.eye(pb.n), ev.jac, ev.grad, ev.c))
    out = []
    for label, H, J, g, c in cases:
        factors = factor_step(H, J)
        assert not factors.step_failed
        lu = factor_reduced_lu(factors)
        bits = [a.tobytes() for a in solve_step(H, g, c, factors)]
        out.append({"case": label, "path": "lu" if lu.lu else "solve",
                    "equal": bits == [a.tobytes() for a in solve_step(H, g, c, lu)]})
    return out


class TestReusedLu:
    """The reused LU of Z'HZ gives the bits of `np.linalg.solve`, whichever path its probe picks."""

    @pytest.mark.parametrize("threads", ["1", "default"])
    def test_bitwise_equal_to_the_stacked_solve(self, threads):
        # BLAS threads can change the bits of a factorization, so each thread
        # rule runs in its own process; which k keep the LU depends on the
        # OpenBLAS version and is printed, not asserted
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        if threads == "1":
            env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
        script = "import json, test_linalg; print(json.dumps(test_linalg.lu_bit_cases()))"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        cases = json.loads(done.stdout.splitlines()[-1])
        print(f"OPENBLAS_NUM_THREADS={threads}:", ", ".join(f"{c['case']}: {c['path']}" for c in cases))
        assert len(cases) == len(LU_KS) + 1
        assert [c["case"] for c in cases if not c["equal"]] == []

    def test_without_the_binding_the_stacked_solve_stays(self, monkeypatch):
        monkeypatch.setattr(linalg, "_LAPACK", None)
        pb = load_problem(str(TESTS / "data" / "golden_wide.json"))
        ev = evaluate(pb, pb.x0[None])[0]
        H = np.eye(pb.n)
        factors = factor_step(H, ev.jac)
        lu = factor_reduced_lu(factors)
        assert lu.lu == []
        for a, b in zip(solve_step(H, ev.grad, ev.c, lu), solve_step(H, ev.grad, ev.c, factors)):
            assert a.tobytes() == b.tobytes()

    def test_small_k_keeps_the_stacked_solve(self):
        assert factor_reduced_lu(factor_step(np.eye(5), np.ones((2, 1, 5)))).lu == []


class TestRandomInstanceProperties:
    def test_kkt_residuals_decomposition_and_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            H, J, g, c = random_instance(rng)
            sol_p, sol_y, u, v, smin = kkt_step(H, J, g, c)
            # KKT residuals of Eq.-style invariants
            r1 = np.abs(H @ sol_p + J.T @ sol_y + g).max()
            r2 = np.abs(J @ sol_p + c).max()
            assert r1 <= TOL * max(1.0, np.abs(g).max())
            assert r2 <= TOL * max(1.0, np.abs(c).max())
            # decomposition invariants
            assert np.abs(J @ u).max() <= TOL * max(1.0, np.abs(u).max())
            assert np.abs(J @ v + c).max() <= TOL * max(1.0, np.abs(c).max())
            assert abs(u @ v) <= TOL * np.linalg.norm(u) * np.linalg.norm(v)
            # minimum-norm bound behind the normal-component lemma
            assert np.linalg.norm(v) <= np.linalg.norm(c) / smin + 1e-12
            # independent dense oracle
            p_ref, y_ref = augmented_solve(H, J, g, c)
            assert np.linalg.norm(sol_p - p_ref) <= 1e-8 * max(1.0, np.linalg.norm(p_ref))
            assert np.linalg.norm(sol_y - y_ref) <= 1e-8 * max(1.0, np.linalg.norm(y_ref))

    def test_normal_component_independent_of_gradient(self):
        rng = np.random.default_rng(5)
        H, J, g, c = random_instance(rng)
        _, _, _, v1, _ = kkt_step(H, J, g, c)
        _, _, _, v2, _ = kkt_step(H, J, rng.normal(size=g.shape), c)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_tangential_is_affine_in_gradient(self):
        rng = np.random.default_rng(11)
        H, J, _, c = random_instance(rng)
        n = H.shape[0]
        g1, g2 = rng.normal(size=n), rng.normal(size=n)
        _, _, u1, _, _ = kkt_step(H, J, g1, c)
        _, _, u2, _, _ = kkt_step(H, J, g2, c)
        _, _, um, _, _ = kkt_step(H, J, (g1 + g2) / 2.0, c)
        assert np.abs(u1 + u2 - 2.0 * um).max() <= 1e-10

    def test_reduced_system_equivalence(self):
        # u must equal -Z (Z'HZ)^{-1} Z'(g + Hv) for any orthonormal Z
        rng = np.random.default_rng(17)
        H, J, g, c = random_instance(rng)
        _, _, u, v, _ = kkt_step(H, J, g, c)
        Z = null_space_oracle(J)
        u_ref = -Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ (g + H @ v))
        np.testing.assert_allclose(u, u_ref, atol=1e-9)

    def test_monte_carlo_mean_matches_true_tangential(self):
        rng = np.random.default_rng(29)
        H, J, g_true, c = random_instance(rng, n_max=12, m_max=4)
        n = H.shape[0]
        _, _, u_true, _, _ = kkt_step(H, J, g_true, c)
        samples = np.empty((2000, n))
        for i in range(2000):
            _, _, u, _, _ = kkt_step(H, J, g_true + 0.3 * rng.normal(size=n), c)
            samples[i] = u
        se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - u_true) <= 3.0 * se + 1e-12)
