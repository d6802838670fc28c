import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tssqp.solver
from tssqp import (
    ConfigError,
    EvaluationFailure,
    Problem,
    SolverConfig,
    evaluate,
    linalg,
    load_problem,
    run,
    run_lanes,
)
from tssqp.solver import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    FAILED,
    NOISE_BLOCK_FLOATS,
    NOISE_BLOCK_ITERS,
    RECORD_BLOCK_ITERS,
    _init_lanes,
    _noise_block_iters,
    step,
)
from oracles import count_getrf, count_svds, first_iteration, first_record, kkt_step


def _config(**kwargs) -> SolverConfig:
    base = dict(strategy="linesearch")
    base.update(kwargs)
    return SolverConfig(**base)


def _write_problem(tmp_path, name="toy", **overrides):
    spec = {
        "name": name, "n": 2, "m": 1, "kind": "quadratic_linear",
        "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, 0.0],
        "A": [[1.0, 1.0]], "b": [1.0],
    }
    spec.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestStep:
    @pytest.mark.parametrize("strategy", ["fixed", "adaptive", "linesearch"])
    def test_kkt_point_is_a_fixed_point(self, strategy):
        pb = load_problem("qp2")
        config = _config(strategy=strategy)
        x_star = np.array([1.0, 0.0])
        trace = run(pb, config, x0=x_star)
        assert (trace.status, trace.iterations) == (CONVERGED, 0)
        np.testing.assert_array_equal(trace.x_final, x_star)
        # c and the stationarity residual are exactly 0 there, so every
        # tolerance ends the lane before it steps: take the step with no row reported converged
        state = _init_lanes(pb, [config], [0], x_star)
        state.observe = lambda feas, stat: {}
        with np.errstate(over="ignore", invalid="ignore"):
            assert step(state)
        rec = first_record(state)
        np.testing.assert_allclose(state.x[0], [1.0, 0.0], atol=1e-12)
        assert rec.stat_inf == pytest.approx(0.0, abs=1e-12)
        assert rec.c_inf == 0.0
        np.testing.assert_allclose(rec.d, 0.0, atol=1e-12)

    def test_qp2_restoration_step(self):
        # fixed strategy, theta = 0: alpha = nu = 1, step lands on the constraint
        pb = load_problem("qp2")
        config = _config(strategy="fixed", nu=1.0, theta=0.0, eta=0.1)
        state, rec = first_iteration(pb, config, x0=np.zeros(2))
        np.testing.assert_allclose(rec.v, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rec.u, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(state.x[0], [1.0, 0.0], atol=1e-12)

    def test_sphere3_linesearch_certifies_or_safeguards(self):
        pb = load_problem("sphere3")
        config = _config()
        x0 = np.asarray(pb.x0, dtype=float)
        rec = first_iteration(pb, config)[1]
        c0 = np.abs(pb.eval_fn(x0)[2]).sum()
        c1 = np.abs(pb.eval_fn(x0 + rec.alpha * rec.d)[2]).sum()
        assert rec.hit_safeguard or c1 <= (1.0 - config.xi * rec.alpha) * c0

    def test_alpha_always_in_range(self):
        pb = load_problem("sphere3")
        for strategy in ("fixed", "adaptive", "linesearch", "ablation"):
            for rule in ("lower", "upper"):
                if strategy in ("linesearch", "ablation") and rule == "upper":
                    continue
                config = _config(strategy=strategy, alpha_rule=rule, max_iters=50,
                                 noise=1e-3, noise_seed=1)
                trace = run(pb, config, seed=4)
                for rec in trace.records:
                    assert rec.alpha_lo <= rec.alpha <= rec.alpha_hi


class TestRun:
    def test_qp2_linesearch_defaults_converges_fast(self):
        trace = run(load_problem("qp2"), _config(), seed=0)
        assert trace.status == CONVERGED
        assert trace.iterations <= 10
        # hand-checked two-step trace: ||c_0||_1 = 1 so the search starts at
        # nu/sqrt(q0^2 + 1) + theta*beta = 1.1 and accepts; the next start is
        # nu/sqrt(1 + 0.1) + 0.1 and accepts again
        r0, r1 = trace.records[0], trace.records[1]
        assert r0.alpha == pytest.approx(1.1, abs=1e-12)
        np.testing.assert_allclose(r1.x, [1.1, 0.0], atol=1e-12)
        assert r1.alpha == pytest.approx(1.0 / np.sqrt(1.1) + 0.1, abs=1e-12)
        assert r1.c_l1 == pytest.approx(0.1, abs=1e-12)

    def test_qplin5_fixed_converges(self):
        # nu chosen under the admissible-stepsize bound evaluated for this
        # instance (sigma = 1/2, tau = 1/4, L = lambda_max(Q), linear c so the
        # Jacobian Lipschitz constant is 0, kappa_v = 1/sigma_min(A));
        # eta sized so the tangential rate is useful within the budget
        from tssqp.problems import _QPLIN5_A, _QPLIN5_Q
        from oracles import nu_upper_bound

        lip_grad = float(np.linalg.eigvalsh(_QPLIN5_Q).max())
        kappa_v = 1.0 / np.linalg.svd(_QPLIN5_A, compute_uv=False).min()
        nu = 0.1
        assert nu <= nu_upper_bound(0.5, kappa_v, 0.25, lip_grad, 0.0)
        config = _config(strategy="fixed", nu=nu, eta=10.0, max_iters=1000,
                         alpha_rule="lower")
        trace = run(load_problem("qplin5"), config, seed=0)
        assert trace.status == CONVERGED

    def test_zero_budget(self):
        trace = run(load_problem("qp2"), _config(max_iters=0), seed=0)
        assert trace.status == BUDGET_EXHAUSTED
        assert trace.records == [] and trace.iterations == 0
        # reported measures come from the start point
        assert trace.feas_error == pytest.approx(1.0)

    def test_trace_determinism(self):
        pb = load_problem("sphere3")
        config = _config(noise=1e-1, noise_seed=5, max_iters=60)
        t1 = run(pb, config, seed=9)
        t2 = run(pb, config, seed=9)
        assert t1.status == t2.status and t1.iterations == t2.iterations
        for r1, r2 in zip(t1.records, t2.records):
            np.testing.assert_array_equal(r1.x, r2.x)
            np.testing.assert_array_equal(r1.d, r2.d)
            assert r1.alpha == r2.alpha

    def test_feasible_start_stays_feasible_on_linear_constraint(self):
        pb = load_problem("qp2")
        config = _config(strategy="fixed", nu=0.5, eta=1.0, max_iters=100,
                         noise=1e-2, noise_seed=3)
        trace = run(pb, config, seed=1, x0=np.array([1.0, 0.7]))
        assert trace.records, "run should take steps (stationarity not yet met)"
        for rec in trace.records:
            assert rec.c_inf <= 1e-8
            assert np.linalg.norm(rec.v) <= 1e-8

    def test_noise_free_tangential_matches_true_step(self):
        pb = load_problem("sphere3")
        trace = run(pb, _config(max_iters=40), seed=0)
        H = np.eye(pb.n)
        for rec in trace.records:
            _, grad, c, jac = pb.eval_fn(rec.x)
            _, _, u_true, _, _ = kkt_step(H, jac, grad, c)
            assert np.abs(rec.u - u_true).max() <= 1e-8

    def test_decomposition_invariants_along_run(self):
        pb = load_problem("quadsphere4")
        trace = run(pb, _config(noise=1e-3, noise_seed=2, max_iters=80), seed=3)
        for rec in trace.records:
            _, _, c, jac = pb.eval_fn(rec.x)
            assert np.abs(jac @ rec.u).max() <= 1e-8 * max(1.0, np.abs(rec.u).max())
            assert np.abs(jac @ rec.v + c).max() <= 1e-8 * max(1.0, np.abs(c).max())
            assert abs(rec.u @ rec.v) <= 1e-8 * np.linalg.norm(rec.u) * np.linalg.norm(rec.v)

    def test_failed_run_keeps_records(self, tmp_path):
        path = _write_problem(tmp_path, name="singular", m=2,
                              A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0])
        pb = load_problem(path)
        trace = run(pb, _config(), seed=0)
        assert trace.status == FAILED
        assert trace.fail_reason == "rank_deficient_jacobian"
        assert trace.records == []

    def test_adaptive_strategy_converges_deterministically(self):
        pb = load_problem("sphere3")
        config = _config(strategy="adaptive", alpha_rule="upper", max_iters=1000,
                         eta=1.0, nu=1.0)
        trace = run(pb, config, seed=0)
        assert trace.status == CONVERGED
        lows = [r.alpha_lo for r in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(lows, lows[1:]))
        betas = [r.beta for r in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(betas, betas[1:]))


def _steep2() -> Problem:
    """Linear c = x1 - 1 with f = exp(300 x1) + x2^2 / 2, whose gradient overflows past x1 ~ 2.37."""
    def con(x):
        return x[..., :1] - 1.0

    def ev(x):
        e = np.exp(300.0 * x[..., 0])
        grad = np.stack([300.0 * e, x[..., 1]], axis=-1)
        return e + 0.5 * x[..., 1] ** 2, grad, con(x), np.array([[1.0, 0.0]])

    return Problem(name="steep2", n=2, m=1, eval_fn=ev, c_fn=con, x0=np.zeros(2))


class TestStepsizeUnderflow:
    """A beta or an alpha lower end that underflows to 0 fails the run, with a token."""

    def _assert_underflow(self, trace):
        assert (trace.status, trace.fail_reason) == (FAILED, "stepsize_underflow")
        assert trace.records == []

    def test_overflowing_tangential_energy(self, tmp_path):
        # u'u overflows, so b = inf and beta = eta / b = 0
        pb = load_problem(_write_problem(tmp_path, g0=[1e160, 0.0]))
        self._assert_underflow(run(pb, _config(strategy="adaptive"), seed=0))

    def test_overflowing_violation(self, tmp_path):
        # ||c||_1 overflows, so q = inf and the lower end nu / q = 0
        pb = load_problem(_write_problem(tmp_path, m=2, A=[[1.0, 0.0], [0.0, 1.0]],
                                         b=[-1e308, -1e308]))
        self._assert_underflow(run(pb, _config(strategy="linesearch"), seed=0))

    def test_denormal_eta(self):
        # beta = eta / sqrt(max_iters) rounds to 0
        self._assert_underflow(run(load_problem("qp2"), _config(strategy="fixed", eta=5e-324), seed=0))


class TestStepsizeOverflow:
    """A beta or an alpha upper end that overflows to inf fails the run with its own token."""

    @pytest.mark.parametrize("kwargs", [dict(strategy="linesearch"),
                                        dict(strategy="fixed", alpha_rule="upper")])
    def test_infinite_upper_end(self, kwargs):
        # theta * beta = 1e308 * 10 (linesearch) or 1e308 * 10 / sqrt(20) (fixed) is inf
        config = _config(theta=1e308, eta=10.0, max_iters=20, **kwargs)
        trace = run(load_problem("sphere3"), config, seed=0)
        assert (trace.status, trace.fail_reason) == (FAILED, "stepsize_overflow")
        assert trace.records == []

    def test_no_overflow_warning_escapes(self, tmp_path):
        cases = [
            (load_problem("sphere3"), _config(theta=1e308, eta=10.0, max_iters=20)),
            (load_problem(_write_problem(tmp_path, g0=[1e160, 0.0])), _config(strategy="adaptive")),
            (load_problem(_write_problem(tmp_path, name="big", m=2, A=[[1.0, 0.0], [0.0, 1.0]],
                                         b=[-1e308, -1e308])), _config()),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for pb, config in cases:
                assert run(pb, config, seed=0).status == FAILED


class TestConstraintOnlySearch:
    def test_gradient_overflow_at_a_discarded_trial_point(self):
        # From x0 = 0 the first search tries alpha = nu/q_hat + theta * eta = 3,
        # i.e. x1 = 3, where c = 2 fails the decrease test and exp(900) overflows.
        pb = _steep2()
        trace = run(pb, _config(nu=1.0, theta=20.0, eta=0.1, max_iters=50), seed=0)
        first = trace.records[0]
        assert first.alpha_hi == 3.0 and first.n_backtracks >= 1
        with np.errstate(over="ignore", invalid="ignore"):
            _, failed = evaluate(pb, (first.x + first.alpha_hi * first.d)[None])
        assert isinstance(failed[0], EvaluationFailure)
        assert trace.status == CONVERGED, trace.fail_reason


class TestWorkPerIteration:
    """Counts oracle and SVD calls, so that repeated work per iteration shows up."""

    @staticmethod
    def _counted_run(monkeypatch, name, config):
        calls = {"evaluate": 0, "c_fn": 0}
        pb = load_problem(name)

        def counting_c_fn(x, c_fn=pb.c_fn):
            calls["c_fn"] += 1
            return c_fn(x)

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tssqp.solver, "evaluate", counting("evaluate", tssqp.solver.evaluate))
        svds = count_svds(monkeypatch)
        trace = run(dataclasses.replace(pb, c_fn=counting_c_fn), config, seed=0)
        return trace, {**calls, "svd": len(svds)}

    @pytest.mark.parametrize("name, kwargs, searches", [
        ("qplin5", dict(), True),
        ("sphere3", dict(strategy="ablation"), True),
        ("quadsphere4", dict(strategy="fixed", alpha_rule="backtrack"), True),
        ("lincirc2", dict(strategy="adaptive"), False),
    ])
    def test_one_full_evaluation_per_iteration(self, monkeypatch, name, kwargs, searches):
        config = _config(noise=1e-2, noise_seed=1, max_iters=150, **kwargs)
        trace, calls = self._counted_run(monkeypatch, name, config)
        assert trace.status != FAILED and trace.iterations > 0
        assert calls["evaluate"] == trace.iterations + 1
        trials = sum(rec.n_backtracks + 1 for rec in trace.records) if searches else 0
        assert calls["c_fn"] == trials

    def test_constant_jacobian_is_factored_once(self, monkeypatch):
        trace, calls = self._counted_run(
            monkeypatch, "qplin5", _config(noise=1e-1, noise_seed=1, max_iters=200)
        )
        assert trace.iterations == 200
        # one full SVD for the step and one reduced SVD for the multiplier
        assert calls["svd"] == 2

    @staticmethod
    def _sphere60(linear: bool) -> Problem:
        """f = ||x - a||^2 / 2 at n = 60, m = 1 (k = 59) on the sphere c = ||x||^2 - 1,
        whose J = 2x' changes with every iterate, or on the plane c = sum(x) - 1."""
        a = np.linspace(-1.0, 1.0, 60)

        def con(x):
            return (x.sum(axis=-1) if linear else (x * x).sum(axis=-1))[..., None] - 1.0

        def ev(x):
            jac = np.ones((1, 60)) if linear else 2.0 * x[..., None, :]
            return 0.5 * ((x - a) ** 2).sum(axis=-1), x - a, con(x), jac

        return Problem(name="sphere60", n=60, m=1, eval_fn=ev, c_fn=con, x0=np.full(60, 0.5))

    def test_a_jacobian_seen_once_pays_no_lu(self, monkeypatch):
        getrf = count_getrf(monkeypatch)
        configs = [_config(max_iters=30, noise=eps, noise_seed=2) for eps in (0.0, 0.1)]
        traces = run_lanes(self._sphere60(linear=False), configs, [0, 1])
        assert [t.iterations for t in traces] == [30, 30]
        assert getrf == []

    def test_a_constant_jacobian_pays_one_lu_per_lane(self, monkeypatch):
        if linalg._LAPACK is None:
            pytest.skip("numpy's LAPACK exports no dgetrf here")
        getrf = count_getrf(monkeypatch)
        configs = [_config(max_iters=30, noise=eps, noise_seed=2) for eps in (0.0, 0.1)]
        traces = run_lanes(self._sphere60(linear=True), configs, [0, 1])
        assert [t.iterations for t in traces] == [30, 30]
        assert len(getrf) == 2


class TestAblation:
    def test_deterministic_qp2_converges(self):
        trace = run(load_problem("qp2"), _config(strategy="ablation"), seed=0)
        assert trace.status == CONVERGED
        x_star, _ = load_problem("qp2").known_kkt
        np.testing.assert_allclose(trace.x_final, x_star, atol=1e-4)

    def test_tiny_beta_displacement_bound(self):
        pb = load_problem("sphere3")
        config = _config(strategy="ablation", eta=1e-6, max_iters=1)
        x0 = np.asarray(pb.x0, dtype=float)
        _, grad, c, jac = pb.eval_fn(x0)
        ksol_p, _, _, _, _ = kkt_step(np.eye(3), jac, grad, c)
        trace = run(pb, config, seed=0)
        moved = np.linalg.norm(trace.x_final - x0)
        assert moved <= 1e-5 * np.linalg.norm(ksol_p) * trace.records[0].alpha_hi

    def test_sphere3_noisy_medians_favor_two_stepsizes(self):
        pb = load_problem("sphere3")
        ls_cfg = _config(noise=1e-1, noise_seed=11)
        ab_cfg = _config(strategy="ablation", noise=1e-1, noise_seed=11)
        ls = [run(pb, ls_cfg, seed=s).feas_error for s in range(10)]
        ab = [run(pb, ab_cfg, seed=s).feas_error for s in range(10)]
        assert np.median(ab) >= np.median(ls)


class TestNoiseBlocks:
    def test_no_draw_past_the_budget(self):
        pb = load_problem("sphere3")
        config = _config(max_iters=3, noise=0.1, noise_seed=6)
        state = _init_lanes(pb, [config], [4])
        stream = state.streams[0]
        with np.errstate(over="ignore", invalid="ignore"):
            while step(state):
                pass
        assert (state.traces[0].status, len(state.traces[0].table)) == (BUDGET_EXHAUSTED, 3)
        fresh = config.stream(4)
        for _ in range(3):
            fresh.random(2 * 2)  # one random(2 * half) call per iteration, half = 2 at n = 3
        assert stream.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("lanes, n, remaining", [
        (1, 2, 1000), (2, 5, 3), (40, 200, 1000), (160, 200, 1000), (400, 200, 1000),
        (7, 10**5, 50), (2**20, 1, 1000), (10**4, 10**4, 1000), (1, 10**7, 1),
    ])
    def test_block_size_rule(self, lanes, n, remaining):
        # the rule alone: none of these blocks is allocated
        k = _noise_block_iters(lanes, n, remaining)
        assert 1 <= k <= min(NOISE_BLOCK_ITERS, remaining)
        assert k * lanes * n <= NOISE_BLOCK_FLOATS or k == 1
        if lanes * n * min(NOISE_BLOCK_ITERS, remaining) <= NOISE_BLOCK_FLOATS:
            assert k == min(NOISE_BLOCK_ITERS, remaining)


def _traced_bytes(fn):
    """fn()'s value, the bytes allocated during it and still held after it, and the peak
    allocated during it, as `tracemalloc` counts them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held - before, peak - before


class TestRecordStore:
    def test_bytes_held_per_lane_iteration(self):
        # noisy sphere3 lanes never meet stat_tol, so every lane records its whole budget:
        # one row of 4n + 11 floats per lane-iteration, plus the traces themselves
        pb = load_problem("sphere3")
        configs = [_config(max_iters=300, noise=0.1, noise_seed=1)] * 40
        run_lanes(pb, configs[:2], [0, 1])  # one-off set-up of a process's first run is not the store
        traces, held, _ = _traced_bytes(lambda: run_lanes(pb, configs, list(range(40))))
        lane_iterations = sum(t.iterations for t in traces)
        assert lane_iterations == 40 * 300
        assert held / lane_iterations <= 1.5 * 8 * (4 * pb.n + 11)

    def test_a_kept_trace_holds_only_its_own_records(self):
        # a trace owns its record table: keeping one lane of a run does not keep the others' records
        pb = load_problem("sphere3")
        configs = [_config(max_iters=300, noise=0.1, noise_seed=1)] * 40
        run_lanes(pb, configs[:2], [0, 1])  # one-off set-up of a process's first run is not the store
        trace, held, _ = _traced_bytes(lambda: run_lanes(pb, configs, list(range(40)))[0])
        assert trace.iterations == 300
        assert held <= 1.5 * trace.iterations * 8 * (4 * pb.n + 11)

    @pytest.mark.parametrize("max_iters", [1, RECORD_BLOCK_ITERS - 1, RECORD_BLOCK_ITERS, RECORD_BLOCK_ITERS + 1,
                                           2 * RECORD_BLOCK_ITERS + 5])
    def test_records_chain_across_blocks(self, max_iters):
        # each record's x is the step from the one before, bitwise, and the last step lands
        # on x_final, for lanes that end mid-block (noise-free) and at the budget (noisy)
        pb = load_problem("sphere3")
        configs = [_config(max_iters=max_iters, noise=noise, noise_seed=3) for noise in (0.0, 0.1, 0.1)]
        for trace in run_lanes(pb, configs, [0, 1, 2]):
            records = trace.records
            assert [r.k for r in records] == list(range(trace.iterations))
            ends = [r.x for r in records[1:]] + [trace.x_final]
            for rec, x_next in zip(records, ends):
                assert (rec.x + rec.alpha * rec.d).tobytes() == x_next.tobytes()
        assert trace.iterations == max_iters

    def test_a_huge_budget_allocates_little(self):
        # the store grows by blocks of iterations: no array is sized from max_iters
        trace, _, peak = _traced_bytes(lambda: run(load_problem("qp2"), _config(max_iters=10**9), seed=0))
        assert trace.status == CONVERGED and trace.iterations <= 10
        assert peak < 2 * 2**20


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(strategy="sgd"),
        dict(max_iters=-1),
        dict(feas_tol=0.0),
        dict(eta=0.0),
        dict(xi=2.0),
        dict(strategy="adaptive", alpha_rule="backtrack"),
        dict(rho=1.0),
        dict(nu=float("inf")),
        dict(feas_tol=float("nan")),
        dict(eta=float("nan")),
        dict(theta=float("nan")),
        dict(q0=float("nan")),
        dict(noise=float("nan")),
        dict(max_iters=2.5),
        dict(max_iters=True),
        dict(b0=0.0),
        dict(noise=-1.0),
        dict(nu=0.0),
        dict(alpha_rule="newton"),
        dict(noise_seed=-1),
        dict(eta="0.1"),
        dict(theta=True),
        dict(noise="x"),
        # A seed is checked when a run starts.
        dict(seed=-1),
        dict(seed=2.5),
        dict(seed=True),
        dict(noise=math.inf),
        # Lanes of one run may differ in noise and noise_seed only.
        dict(lane=dict(eta=0.2)),
    ])
    def test_invalid(self, kwargs):
        built = dict(kwargs)
        seed, lane = built.pop("seed", None), built.pop("lane", None)
        problem = load_problem("qp2")
        if lane is not None:
            base = _config(max_iters=2)
            run_lanes(problem, [base, dataclasses.replace(base, noise=0.1, noise_seed=1)], [0, 1])
        with pytest.raises(ConfigError):
            if seed is not None:
                run(problem, _config(**built), seed=seed)
            elif lane is not None:
                run_lanes(problem, [base, dataclasses.replace(base, **lane)], [0, 1])
            else:
                _config(**built)
