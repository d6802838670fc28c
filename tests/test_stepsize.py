import math

import numpy as np
import pytest

from tssqp import (
    EvaluationFailure,
    InvalidLineSearchConfig,
    SolverConfig,
    adaptive_update,
    backtrack_count_bound,
    load_problem,
    run,
    safeguarded_backtrack,
)
from tssqp.stepsize import backtrack_rows
from oracles import first_iteration, replay_backtrack


def _first_record(**kwargs):
    """The record of the first iteration on sphere3 from its start point."""
    pb = load_problem("sphere3")
    config = SolverConfig(**kwargs)
    return first_iteration(pb, config)[1]


class TestFixedSchedule:
    @pytest.mark.parametrize("eta, horizon, expected", [(1.0, 100, 0.1), (0.1, 1, 0.1)])
    def test_horizon_rule(self, eta, horizon, expected):
        rec = _first_record(strategy="fixed", eta=eta, max_iters=horizon)
        assert rec.beta == pytest.approx(expected)

    def test_experiment_profile_keeps_beta_constant(self):
        # backtracking mode uses the plain constant eta, independent of horizon
        for horizon in (1, 100, 1000):
            rec = _first_record(strategy="fixed", eta=0.1, max_iters=horizon, alpha_rule="backtrack")
            assert rec.beta == 0.1

    @pytest.mark.parametrize("nu, theta, beta, expected", [
        (1.0, 1.0, 0.1, (1.0, 1.1)),
        (1.0, 0.0, 0.25, (1.0, 1.0)),
        (0.5, 2.0, 0.25, (0.5, 1.0)),
    ])
    def test_alpha_range(self, nu, theta, beta, expected):
        # under alpha_rule backtrack beta = eta, so the range is [nu, nu + theta * eta]
        rec = _first_record(strategy="fixed", nu=nu, theta=theta, eta=beta, alpha_rule="backtrack")
        assert rec.beta == beta
        assert (rec.alpha_lo, rec.alpha_hi) == pytest.approx(expected)


class TestAdaptiveUpdate:
    def test_chained_example(self):
        assert adaptive_update(1.0, 3.0) == pytest.approx(2.0)
        assert adaptive_update(2.0, 5.0) == pytest.approx(3.0)
        # step chains the same update from b0, and q^2 += ||c||_1 from q0
        pb = load_problem("sphere3")
        config = SolverConfig(strategy="adaptive", eta=0.5, nu=0.8, theta=2.0, b0=1.5, q0=0.3,
                              alpha_rule="upper", max_iters=30, noise=0.1, noise_seed=2)
        b, q = config.b0, config.q0
        for rec in run(pb, config, seed=1).records:
            b = adaptive_update(b, float(rec.u @ rec.u))
            q = math.sqrt(q * q + rec.c_l1)
            assert rec.beta == config.eta / b
            assert rec.alpha_lo == config.nu / q
            assert rec.alpha_hi == rec.alpha_lo + min(config.theta / b, config.theta / q)
            assert rec.alpha == rec.alpha_hi

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        b = 1.0
        for _ in range(200):
            b_next = adaptive_update(b, rng.exponential())
            assert b_next >= b
            b = b_next
        config = SolverConfig(strategy="adaptive", max_iters=200, noise=0.1)
        records = run(load_problem("sphere3"), config, seed=0).records
        assert len(records) == 200
        for prev, rec in zip(records, records[1:]):
            assert rec.beta <= prev.beta
            assert rec.alpha_lo <= prev.alpha_lo

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            adaptive_update(1.0, -1.0)


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


class TestBacktrackRows:
    """The search of a stack of lanes gives each lane the result of its own search."""

    def test_mixed_lanes_match_one_lane_searches(self):
        # c(z) = z0^2 - 1; c is NaN where 0.4 < z1 < 0.6, which only the last
        # lane (d1 = 1) reaches, at its second trial point
        def c_of(z):
            c = z[:, :1] * z[:, :1] - 1.0
            c[(z[:, 1] > 0.4) & (z[:, 1] < 0.6)] = np.nan
            return c

        sizes = []

        def c_rows(z):
            sizes.append(len(z))
            c = c_of(z)
            return c, {j: EvaluationFailure(f"c at {z[j]!r}") for j in np.flatnonzero(np.isnan(c[:, 0])).tolist()}

        x = np.array([[0.9, 0.0], [0.1, 0.0], [0.1, 0.0], [0.1, 0.0]])
        d = np.array([[0.1, 0.0], [4.95, 0.0], [4.95, 0.0], [4.95, 1.0]])
        c_l1 = np.abs(c_of(x)).sum(axis=1).tolist()
        upper, lower, xi, rho = [1.0] * 4, [0.01, 0.01, 0.3, 0.01], 1e-3, 0.5
        alpha, hit, count, failed = backtrack_rows(c_rows, x, d, c_l1, upper, lower, xi, rho)

        def c_one(z):
            return c_of(z[None])[0]

        # certified at upper; certified after two backtracks; safeguarded at lower
        for i, want in enumerate([(1.0, False, 0), (0.25, False, 2), (0.3, True, 2)]):
            got = (alpha[i], hit[i], count[i])
            assert got == want
            assert got == safeguarded_backtrack(c_one, x[i], d[i], c_l1[i], upper[i], lower[i], xi, rho)
            assert got == replay_backtrack(c_one, x[i], d[i], upper[i], lower[i], xi, rho)
        # the last lane stops at its failed trial alpha, after one backtrack
        assert list(failed) == [3] and isinstance(failed[3], EvaluationFailure)
        assert (alpha[3], hit[3], count[3]) == (0.5, True, 1)
        # one oracle call per round, on the lanes still searching
        assert sizes == [4, 3, 2]
