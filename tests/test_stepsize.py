import numpy as np
import pytest

from tssqp import (
    AdaptiveState,
    FixedSchedule,
    InvalidLineSearchConfig,
    adaptive_update,
    backtrack_count_bound,
    fixed_alpha_range,
    fixed_beta,
    safeguarded_backtrack,
)
from oracles import replay_backtrack


class TestFixedSchedule:
    @pytest.mark.parametrize("eta, horizon, expected", [(1.0, 100, 0.1), (0.1, 1, 0.1)])
    def test_horizon_rule(self, eta, horizon, expected):
        sched = FixedSchedule(eta=eta, horizon=horizon)
        assert fixed_beta(sched) == pytest.approx(expected)

    def test_experiment_profile_keeps_beta_constant(self):
        # backtracking mode uses the plain constant eta, independent of horizon
        for horizon in (1, 100, 1000):
            sched = FixedSchedule(eta=0.1, horizon=horizon, alpha_rule="backtrack")
            assert fixed_beta(sched) == 0.1

    @pytest.mark.parametrize("nu, theta, beta, expected", [
        (1.0, 1.0, 0.1, (1.0, 1.1)),
        (1.0, 0.0, 0.25, (1.0, 1.0)),
        (0.5, 2.0, 0.25, (0.5, 1.0)),
    ])
    def test_alpha_range(self, nu, theta, beta, expected):
        sched = FixedSchedule(nu=nu, theta=theta)
        lo, hi = fixed_alpha_range(sched, beta)
        assert (lo, hi) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedSchedule(nu=0.0)
        with pytest.raises(ValueError):
            FixedSchedule(alpha_rule="newton")


class TestAdaptiveUpdate:
    def test_chained_example(self):
        state = AdaptiveState(eta=1.0, nu=1.0, theta=1.0, b=1.0, q=1.0)
        beta, (lo, hi) = adaptive_update(state, u_norm_sq=3.0, c_norm_1=3.0)
        assert state.b == pytest.approx(2.0)
        assert beta == pytest.approx(0.5)
        assert state.q == pytest.approx(2.0)
        assert lo == pytest.approx(0.5)
        beta, (lo, hi) = adaptive_update(state, u_norm_sq=5.0, c_norm_1=0.0)
        assert state.b == pytest.approx(3.0)
        assert beta == pytest.approx(1.0 / 3.0)
        assert (lo, hi) == pytest.approx((0.5, 0.5 + min(1.0 / 3.0, 0.5)))

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        state = AdaptiveState(eta=0.1, nu=1.0, theta=1.0, b=1.0, q=1e-9)
        prev_b, prev_q, prev_beta, prev_lo = state.b, state.q, 0.1, np.inf
        for _ in range(200):
            beta, (lo, _) = adaptive_update(state, rng.exponential(), rng.exponential())
            assert state.b >= prev_b and state.q >= prev_q
            assert beta <= prev_beta + 1e-15
            assert lo <= prev_lo + 1e-15
            prev_b, prev_q, prev_beta, prev_lo = state.b, state.q, beta, lo

    def test_beta_prev_tracks_previous_accumulator(self):
        state = AdaptiveState(eta=1.0, b=2.0)
        assert state.beta_prev == pytest.approx(0.5)
        adaptive_update(state, 5.0, 0.0)
        assert state.beta_prev == pytest.approx(0.5)
        adaptive_update(state, 0.0, 0.0)
        assert state.beta_prev == pytest.approx(1.0 / 3.0)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            adaptive_update(AdaptiveState(), -1.0, 0.0)


def _scalar_c(fn):
    return lambda x: np.atleast_1d(fn(float(np.atleast_1d(x)[0])))


def _l1(c_fn, x):
    """||c(x)||_1, the violation the caller hands to the search."""
    return float(np.abs(c_fn(x)).sum())


class TestSafeguardedBacktrack:
    def test_linear_constraint_accepts_full_step(self):
        c_fn = _scalar_c(lambda t: t)
        x = np.array([1.0])
        alpha, hit, count = safeguarded_backtrack(
            c_fn, x, np.array([-1.0]), _l1(c_fn, x), 1.0, 0.01, 1e-3, 0.5
        )
        assert (alpha, hit, count) == (1.0, False, 0)

    def test_quadratic_needs_two_backtracks(self):
        c_fn = _scalar_c(lambda t: t * t - 1.0)
        x, d = np.array([0.1]), np.array([4.95])
        alpha, hit, count = safeguarded_backtrack(c_fn, x, d, _l1(c_fn, x), 1.0, 0.01, 1e-3, 0.5)
        assert (alpha, hit, count) == (0.25, False, 2)
        assert (alpha, hit, count) == replay_backtrack(c_fn, x, d, 1.0, 0.01, 1e-3, 0.5)

    def test_safeguard_branch(self):
        c_fn = _scalar_c(lambda t: t * t - 1.0)
        x, d = np.array([0.1]), np.array([4.95])
        alpha, hit, count = safeguarded_backtrack(c_fn, x, d, _l1(c_fn, x), 1.0, 0.3, 1e-3, 0.5)
        assert (alpha, hit, count) == (0.3, True, 2)
        assert (alpha, hit, count) == replay_backtrack(c_fn, x, d, 1.0, 0.3, 1e-3, 0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(upper=0.5, lower=1.0),
        dict(upper=1.0, lower=0.0),
        dict(upper=1.0, lower=0.1, xi=1.0),
        dict(upper=1.0, lower=0.1, rho=0.0),
    ])
    def test_invalid_config(self, kwargs):
        full = dict(upper=1.0, lower=0.1, xi=1e-3, rho=0.5)
        full.update(kwargs)
        with pytest.raises(InvalidLineSearchConfig):
            safeguarded_backtrack(
                _scalar_c(lambda t: t), np.array([1.0]), np.array([-1.0]), 1.0, **full
            )

    def test_count_bound_and_safeguard_semantics(self):
        # constraint violation grows with alpha, so the search always exhausts
        rng = np.random.default_rng(8)
        c_fn = _scalar_c(lambda t: 1.0 + t * t)
        for _ in range(50):
            upper = float(rng.uniform(0.5, 50.0))
            lower = float(rng.uniform(1e-4, 0.4)) * upper
            rho = float(rng.uniform(0.2, 0.9))
            x = np.array([1.0])
            alpha, hit, count = safeguarded_backtrack(
                c_fn, x, np.array([1.0]), _l1(c_fn, x), upper, lower, 1e-3, rho
            )
            assert count <= backtrack_count_bound(lower, upper, rho)
            assert hit and alpha == lower

    def test_accepted_steps_certify_decrease(self):
        c_fn = _scalar_c(lambda t: t * t - 1.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = np.array([float(rng.uniform(0.0, 0.9))])
            d = np.array([float(rng.uniform(0.1, 3.0))])
            alpha, hit, _ = safeguarded_backtrack(c_fn, x, d, _l1(c_fn, x), 2.0, 1e-3, 1e-3, 0.5)
            if not hit:
                lhs = np.abs(c_fn(x + alpha * d)).sum()
                rhs = (1.0 - 1e-3 * alpha) * np.abs(c_fn(x)).sum()
                assert lhs <= rhs

    def test_feasible_point_accepts_upper(self):
        c_fn = _scalar_c(lambda t: t)
        x = np.array([0.0])
        alpha, hit, count = safeguarded_backtrack(
            c_fn, x, np.array([0.0]), _l1(c_fn, x), 1.5, 0.5, 1e-3, 0.5
        )
        assert (alpha, hit, count) == (1.5, False, 0)
