import dataclasses
import json

import numpy as np
import pytest

from tssqp import (
    ConfigError,
    DimensionMismatch,
    EvaluationFailure,
    NoiseModel,
    ParseError,
    Problem,
    UnknownProblem,
    builtin_names,
    builtin_suite,
    evaluate,
    evaluate_c,
    load_problem,
)
from tssqp import SolverConfig, init_state, run
from tssqp.problems import evaluate_c_rows, evaluate_rows
from tssqp.solver import _noisy_gradients
from oracles import augmented_solve


class TestEvaluate:
    def test_qp2_at_kkt_point(self):
        pb = load_problem("qp2")
        ev = evaluate(pb, np.array([1.0, 0.0]))
        assert ev.f == 0.5
        np.testing.assert_array_equal(ev.grad, [1.0, 0.0])
        np.testing.assert_array_equal(ev.c, [0.0])
        np.testing.assert_array_equal(ev.jac, [[1.0, 0.0]])

    def test_qp2_infeasible_point(self):
        pb = load_problem("qp2")
        np.testing.assert_array_equal(evaluate(pb, np.zeros(2)).c, [-1.0])

    def test_sphere3(self):
        pb = load_problem("sphere3")
        ev = evaluate(pb, np.ones(3))
        assert ev.f == 3.0
        np.testing.assert_array_equal(ev.c, [0.0])
        np.testing.assert_array_equal(ev.jac, [[2.0, 2.0, 2.0]])

    def test_dimension_mismatch(self):
        pb = load_problem("qp2")
        with pytest.raises(DimensionMismatch):
            evaluate(pb, np.zeros(3))

    def test_overflow_raises(self):
        pb = load_problem("rosenlin2")
        with pytest.raises(EvaluationFailure):
            evaluate(pb, np.array([1e200, -1e200]))

    def test_deterministic(self):
        pb = load_problem("qplin5")
        x = np.array([0.3, -1.2, 0.7, 2.0, -0.1])
        a, b = evaluate(pb, x), evaluate(pb, x)
        assert a.f == b.f
        np.testing.assert_array_equal(a.grad, b.grad)
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.jac, b.jac)


def _write_random_quadratic_linear(path, seed, n=12, m=4):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    spec = {
        "name": f"rand{seed}", "n": n, "m": m, "kind": "quadratic_linear",
        "Q": (np.eye(n) + (B + B.T) / 4.0).tolist(), "g0": rng.normal(size=n).tolist(),
        "A": rng.normal(size=(m, n)).tolist(), "b": rng.normal(size=m).tolist(),
    }
    path.write_text(json.dumps(spec))
    return str(path)


class TestConstraintOracle:
    """c_fn is the line search's oracle; it must give the bits of evaluate(...).c."""

    @pytest.mark.parametrize("name", builtin_names() + ["quadratic_linear_file"])
    def test_bitwise_equal_to_full_evaluation(self, tmp_path, name):
        if name == "quadratic_linear_file":
            name = _write_random_quadratic_linear(tmp_path / "rand.json", seed=4)
        pb = load_problem(name)
        rng = np.random.default_rng(12)
        for _ in range(25):
            x = pb.x0 + rng.normal(scale=2.0, size=pb.n)
            full = evaluate(pb, x).c
            assert np.asarray(pb.c_fn(x), dtype=float).tobytes() == full.tobytes()
            assert evaluate_c(pb, x).tobytes() == full.tobytes()

    def test_non_finite_constraint_raises(self):
        with pytest.raises(EvaluationFailure):
            evaluate_c(load_problem("sphere3"), np.array([1e200, 0.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_c(load_problem("qp2"), np.zeros(3))


class TestStackedOracles:
    """The oracles give each row of a (B, n) stack the bits of its own call."""

    @pytest.mark.parametrize("name", builtin_names() + ["quadratic_linear_file"])
    def test_rows_bitwise_equal_to_single_calls(self, tmp_path, name):
        if name == "quadratic_linear_file":
            name = _write_random_quadratic_linear(tmp_path / "rand.json", seed=4)
        pb = load_problem(name)
        rng = np.random.default_rng(21)
        for scale in (1e-3, 1.0, 1e3):
            X = pb.x0 + rng.normal(scale=scale, size=(7, pb.n))
            X[0] = -0.0
            stack, failed = evaluate_rows(pb, X)
            c_stack, c_failed = evaluate_c_rows(pb, X)
            assert failed == c_failed == {}
            assert stack.jac.shape == (7, pb.m, pb.n)
            for i, x in enumerate(X):
                f, grad, c, jac = pb.eval_fn(x)
                assert stack.f[i].tobytes() == np.float64(f).tobytes()
                assert stack.grad[i].tobytes() == np.asarray(grad, dtype=float).tobytes()
                c = np.atleast_1d(np.asarray(c, dtype=float))
                assert stack.c[i].tobytes() == c.tobytes() == c_stack[i].tobytes()
                assert c_stack[i].tobytes() == np.atleast_1d(np.asarray(pb.c_fn(x), dtype=float)).tobytes()
                assert stack.jac[i].tobytes() == np.asarray(jac, dtype=float).tobytes()

    def test_non_finite_rows_are_reported_not_raised(self):
        pb = load_problem("sphere3")
        X = np.array([[1.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with np.errstate(over="ignore"):
            _, failed = evaluate_rows(pb, X)
            _, c_failed = evaluate_c_rows(pb, X)
        assert list(failed) == list(c_failed) == [1]
        assert isinstance(failed[1], EvaluationFailure) and isinstance(c_failed[1], EvaluationFailure)

    def test_each_oracle_is_called_once_per_stack(self):
        base = load_problem("qplin5")
        calls = []

        def counted(oracle):
            def wrapper(X):
                calls.append((oracle.__name__, X.shape))
                return oracle(X)
            return wrapper

        pb = dataclasses.replace(base, eval_fn=counted(base.eval_fn), c_fn=counted(base.c_fn))
        X = np.random.default_rng(3).normal(size=(3, 5))
        stack, failed = evaluate_rows(pb, X)
        c, c_failed = evaluate_c_rows(pb, X)
        assert calls == [("ev", (3, 5)), ("con", (3, 5))] and failed == c_failed == {}
        assert stack.jac.shape == (3, 2, 5)
        assert stack.c.tobytes() == c.tobytes() == base.c_fn(X).tobytes()


def _one_point_c(x):
    return np.array([x[0] - 1.0])


class TestOracleShapes:
    """Output whose shape does not fit the (B, n) stack raises DimensionMismatch."""

    def test_one_point_constraint_oracle(self):
        pb = dataclasses.replace(load_problem("qp2"), c_fn=_one_point_c)
        with pytest.raises(DimensionMismatch):
            evaluate_c_rows(pb, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            run(pb, SolverConfig(strategy="linesearch", max_iters=5), seed=0)

    def test_gradient_without_the_row_axis(self):
        base = load_problem("qp2")

        def ev(x):
            f, grad, c, jac = base.eval_fn(x)
            return f, grad[0], c, jac

        with pytest.raises(DimensionMismatch):
            evaluate_rows(dataclasses.replace(base, eval_fn=ev), np.zeros((3, 2)))


class TestProblemFields:
    @pytest.mark.parametrize("fields, error", [
        ({"n": 2.5}, ConfigError),
        ({"n": 0}, ConfigError),
        ({"m": 0}, ConfigError),
        ({"m": True}, ConfigError),
        ({"m": 4}, ConfigError),
        ({"h_matrix": np.eye(2)}, DimensionMismatch),
        ({"h_matrix": np.full((3, 3), np.nan)}, ConfigError),
        ({"h_matrix": np.diag([1.0, np.inf, 1.0])}, ConfigError),
    ])
    def test_bad_fields_raise_package_errors(self, fields, error):
        with pytest.raises(error):
            dataclasses.replace(load_problem("sphere3"), **fields)


def _noisy_gradient(grad, noise, stream):
    """One draw g = grad + sqrt(eps) * z through the solver's lane noise, from `stream`."""
    state = init_state(load_problem("qp2"), SolverConfig(noise=noise))
    state.streams = [stream]
    return _noisy_gradients(grad[None], state)[0]


class TestStochasticGradient:
    """The solver's gradient draw g = grad + sqrt(eps) * z."""

    def test_zero_variance_is_exact(self):
        pb = load_problem("qp2")
        noise = NoiseModel(0.0, seed=42)
        x = np.array([0.7, -0.2])
        g = _noisy_gradient(evaluate(pb, x).grad, noise, noise.stream())
        np.testing.assert_array_equal(g, evaluate(pb, x).grad)

    def test_same_seed_same_draw(self):
        pb = load_problem("qp2")
        noise = NoiseModel(1e-1, seed=7)
        x = np.array([1.0, 0.0])
        grad = evaluate(pb, x).grad
        g1 = _noisy_gradient(grad, noise, noise.stream())
        g2 = _noisy_gradient(grad, noise, noise.stream())
        np.testing.assert_array_equal(g1, g2)

    def test_monte_carlo_mean_and_variance(self):
        # 1e5 draws at qp2's KKT point: mean within 0.01 per coordinate
        # (3 sigma = 0.003), per-coordinate variance within [0.09, 0.11],
        # and E||g - grad||^2 within 5% of n * eps.
        pb = load_problem("qp2")
        eps = 1e-1
        noise = NoiseModel(eps, seed=123)
        stream = noise.stream()
        x = np.array([1.0, 0.0])
        grad = evaluate(pb, x).grad
        state = init_state(pb, SolverConfig(noise=noise))
        state.streams = [stream]
        draws = np.array([
            _noisy_gradients(grad[None], state)[0] for _ in range(100_000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), grad, atol=0.01)
        var = draws.var(axis=0)
        assert np.all(var >= 0.09) and np.all(var <= 0.11)
        mean_sq = ((draws - grad) ** 2).sum(axis=1).mean()
        assert abs(mean_sq - pb.n * eps) <= 0.05 * pb.n * eps


class TestBuiltins:
    @pytest.mark.parametrize("name", builtin_names())
    def test_known_kkt_residuals(self, name):
        pb = load_problem(name)
        assert pb.known_kkt is not None
        x_star, y_star = pb.known_kkt
        ev = evaluate(pb, x_star)
        assert np.abs(ev.grad + ev.jac.T @ y_star).max() <= 1e-10
        assert np.abs(ev.c).max() <= 1e-10

    def test_suite_contains_spec_minimum(self):
        names = builtin_names()
        for required in ("qp2", "qplin5", "sphere3", "rosenlin2"):
            assert required in names
        assert len(builtin_suite()) == len(names)

    def test_qp2_kkt_matches_dense_oracle(self):
        pb = load_problem("qp2")
        p, y = augmented_solve(np.eye(2), np.array([[1.0, 0.0]]),
                               np.zeros(2), np.array([-1.0]))
        np.testing.assert_allclose(p, pb.known_kkt[0], atol=1e-12)
        np.testing.assert_allclose(y, pb.known_kkt[1], atol=1e-12)

    def test_qplin5_kkt_matches_dense_oracle(self):
        # augmented_solve([[Q, A'], [A, 0]], rhs [-g0; b]) is the stationarity system
        pb = load_problem("qplin5")
        from tssqp.problems import _QPLIN5_A, _QPLIN5_B, _QPLIN5_G0, _QPLIN5_Q

        x_star, y_star = augmented_solve(_QPLIN5_Q, _QPLIN5_A, _QPLIN5_G0, -_QPLIN5_B)
        np.testing.assert_allclose(x_star, pb.known_kkt[0], atol=1e-9)
        np.testing.assert_allclose(y_star, pb.known_kkt[1], atol=1e-9)
        ev = evaluate(pb, x_star)
        assert np.abs(ev.grad + ev.jac.T @ y_star).max() <= 1e-10
        assert np.abs(ev.c).max() <= 1e-10

    def test_infeasible_starts(self):
        # the experiment protocol starts every built-in away from feasibility
        for pb in builtin_suite():
            assert np.abs(evaluate(pb, pb.x0).c).max() > 1e-3


class TestLoadProblem:
    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            load_problem("nosuch")

    def test_quadratic_linear_file(self, tmp_path):
        spec = {
            "name": "toy", "n": 2, "m": 1, "kind": "quadratic_linear",
            "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, 0.0],
            "A": [[1.0, 1.0]], "b": [1.0],
        }
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(spec))
        pb = load_problem(str(path))
        assert (pb.n, pb.m) == (2, 1)
        assert pb.known_kkt is None
        # the dense KKT solve of the stationarity system is a KKT pair of the loaded problem
        x_ref, y_ref = augmented_solve(np.eye(2), np.array([[1.0, 1.0]]),
                                       np.zeros(2), np.array([-1.0]))
        np.testing.assert_allclose(x_ref, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(y_ref, [-0.5], atol=1e-12)
        ev = evaluate(pb, x_ref)
        assert np.abs(ev.grad + ev.jac.T @ y_ref).max() <= 1e-12
        assert np.abs(ev.c).max() <= 1e-12
        ev = evaluate(pb, np.array([2.0, 0.0]))
        assert ev.f == 2.0
        np.testing.assert_array_equal(ev.c, [1.0])
        np.testing.assert_array_equal(pb.x0, np.zeros(2))

    def test_flat_row_major_arrays(self, tmp_path):
        spec = {
            "name": "flat", "n": 2, "m": 1, "kind": "quadratic_linear",
            "Q": [2.0, 0.0, 0.0, 2.0], "g0": [1.0, 0.0], "A": [1.0, -1.0], "b": [0.0],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(spec))
        pb = load_problem(str(path))
        np.testing.assert_array_equal(evaluate(pb, np.array([1.0, 1.0])).grad, [3.0, 2.0])

    @pytest.mark.parametrize("mutation, fragment", [
        (lambda s: s.pop("Q"), "missing"),
        (lambda s: s.update(kind="nonlinear"), "kind"),
        (lambda s: s.update(Q=[[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (lambda s: s.update(b=[1.0, 2.0]), "'b'"),
        (lambda s: s.update(extra=1), "unknown"),
        (lambda s: s.update(n=0), "0 < m <= n"),
        (lambda s: s.update(A=[[1.0]]), "'A'"),
    ])
    def test_malformed_files(self, tmp_path, mutation, fragment):
        spec = {
            "name": "bad", "n": 2, "m": 1, "kind": "quadratic_linear",
            "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, 0.0],
            "A": [[1.0, 1.0]], "b": [1.0],
        }
        mutation(spec)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ParseError, match=fragment):
            load_problem(str(path))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "n": }')
        with pytest.raises(ParseError, match="line 2"):
            load_problem(str(path))
