import dataclasses
import json
import warnings

import numpy as np
import pytest

from tssqp import (
    ConfigError,
    DimensionMismatch,
    EvaluationFailure,
    ParseError,
    Problem,
    UnknownProblem,
    builtin_names,
    builtin_suite,
    evaluate,
    load_problem,
)
from tssqp import SolverConfig, run
from tssqp.problems import evaluate_c, standard_normal_vector
from tssqp.solver import _init_lanes, _noisy_gradients
from oracles import augmented_solve


def _poisoned(poison=None) -> Problem:
    """n = 2, m = 1, with row i of f, grad, c and J built from X[i]; `poison` =
    (output, row, value) puts `value` into the last entry of that output's row."""
    def outputs(X):
        out = dict(f=X[:, 0].copy(), grad=X.copy(), c=X[:, 1:].copy(), jac=X[:, None, :].copy())
        if poison is not None:
            output, row, value = poison
            out[output].reshape(len(X), -1)[row, -1] = value
        return out

    def ev(X):
        out = outputs(X)
        return out["f"], out["grad"], out["c"], out["jac"]

    return Problem(name="poisoned", n=2, m=1, eval_fn=ev, c_fn=lambda X: outputs(X)["c"], x0=np.zeros(2))


def _at(problem, x):
    """The evaluation at one point, as the one-row stack x[None]; its row must not fail."""
    ev, failed = evaluate(problem, np.asarray(x, dtype=float)[None])
    assert failed == {}
    return ev


class TestEvaluate:
    def test_qp2_at_kkt_point(self):
        ev = _at(load_problem("qp2"), [1.0, 0.0])
        np.testing.assert_array_equal(ev.f, [0.5])
        np.testing.assert_array_equal(ev.grad, [[1.0, 0.0]])
        np.testing.assert_array_equal(ev.c, [[0.0]])
        np.testing.assert_array_equal(ev.jac, [[[1.0, 0.0]]])

    def test_qp2_infeasible_point(self):
        np.testing.assert_array_equal(_at(load_problem("qp2"), np.zeros(2)).c, [[-1.0]])

    def test_sphere3(self):
        ev = _at(load_problem("sphere3"), np.ones(3))
        np.testing.assert_array_equal(ev.f, [3.0])
        np.testing.assert_array_equal(ev.c, [[0.0]])
        np.testing.assert_array_equal(ev.jac, [[[2.0, 2.0, 2.0]]])

    def test_dimension_mismatch(self):
        # one point where a (B, n) stack is due, and stacks of the wrong width;
        # the width is checked before the oracle runs (lincirc2's would raise a
        # broadcasting ValueError on a width-3 stack)
        for name, X in (("qp2", np.zeros(2)), ("qp2", np.zeros(3)), ("qp2", np.zeros((1, 3))),
                        ("lincirc2", np.zeros((1, 3)))):
            with pytest.raises(DimensionMismatch):
                evaluate(load_problem(name), X)

    def test_overflow_is_reported(self):
        pb = load_problem("rosenlin2")
        with np.errstate(over="ignore", invalid="ignore"):
            _, failed = evaluate(pb, np.array([[1e200, -1e200]]))
        assert list(failed) == [0] and isinstance(failed[0], EvaluationFailure)

    def test_deterministic(self):
        pb = load_problem("qplin5")
        x = np.array([0.3, -1.2, 0.7, 2.0, -0.1])
        a, b = _at(pb, x), _at(pb, x)
        for field_a, field_b in zip(a, b):
            assert field_a.tobytes() == field_b.tobytes()


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
    """c_fn is the line search's oracle; it must give the bits of evaluate(...)'s c."""

    @pytest.mark.parametrize("name", builtin_names() + ["quadratic_linear_file"])
    def test_bitwise_equal_to_full_evaluation(self, tmp_path, name):
        if name == "quadratic_linear_file":
            name = _write_random_quadratic_linear(tmp_path / "rand.json", seed=4)
        pb = load_problem(name)
        rng = np.random.default_rng(12)
        for _ in range(25):
            x = pb.x0 + rng.normal(scale=2.0, size=pb.n)
            full = _at(pb, x).c[0]
            assert np.asarray(pb.c_fn(x), dtype=float).tobytes() == full.tobytes()
            assert evaluate_c(pb, x[None])[0][0].tobytes() == full.tobytes()

    def test_non_finite_constraint_raises(self):
        x = np.array([[1e200, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            _, failed = evaluate_c(load_problem("sphere3"), x)
        assert list(failed) == [0] and isinstance(failed[0], EvaluationFailure)

    def test_dimension_mismatch(self):
        # one point where a (B, n) stack is due: c_fn gives one row for three "points"
        with pytest.raises(DimensionMismatch):
            evaluate_c(load_problem("qp2"), np.zeros(3))
        # a stack of the wrong width: qp2's c_fn reads only the first column
        with pytest.raises(DimensionMismatch):
            evaluate_c(load_problem("qp2"), np.zeros((1, 3)))


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
            stack, failed = evaluate(pb, X)
            c_stack, c_failed = evaluate_c(pb, X)
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
            _, failed = evaluate(pb, X)
            _, c_failed = evaluate_c(pb, X)
        assert list(failed) == list(c_failed) == [1]
        assert isinstance(failed[1], EvaluationFailure) and isinstance(c_failed[1], EvaluationFailure)

        # finite entries whose sum overflows: no failure and no warning
        X = np.full((3, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(_poisoned(), X)[1] == evaluate_c(_poisoned(), X)[1] == {}

        # one non-finite entry in one output fails that row alone
        X = np.arange(6.0).reshape(3, 2)
        for output in ("f", "grad", "c", "jac"):
            for value in (np.nan, np.inf, -np.inf):
                for row in range(3):
                    pb = _poisoned((output, row, value))
                    _, failed = evaluate(pb, X)
                    assert list(failed) == [row] and isinstance(failed[row], EvaluationFailure)
                    _, c_failed = evaluate_c(pb, X)
                    assert list(c_failed) == ([row] if output == "c" else [])

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
        stack, failed = evaluate(pb, X)
        c, c_failed = evaluate_c(pb, X)
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
            evaluate_c(pb, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            run(pb, SolverConfig(strategy="linesearch", max_iters=5), seed=0)

    def test_gradient_without_the_row_axis(self):
        base = load_problem("qp2")

        def ev(x):
            f, grad, c, jac = base.eval_fn(x)
            return f, grad[0], c, jac

        with pytest.raises(DimensionMismatch):
            evaluate(dataclasses.replace(base, eval_fn=ev), np.zeros((3, 2)))


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

    @pytest.mark.parametrize("h", [
        [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        np.diag([2, 1, 1]),
        np.asfortranarray(np.arange(9.0).reshape(3, 3)),
    ], ids=["list", "int array", "Fortran order"])
    def test_h_matrix_is_stored_as_a_c_contiguous_float64_array(self, h):
        problem = dataclasses.replace(load_problem("sphere3"), h_matrix=h)
        assert isinstance(problem.h_matrix, np.ndarray) and problem.h_matrix.dtype == np.float64
        assert problem.h_matrix.flags.c_contiguous
        np.testing.assert_array_equal(problem.h_matrix, np.asarray(h, dtype=float))


def _noisy_gradient(grad, config):
    """One draw g = grad + sqrt(eps) * z through the solver's lane noise, from `config.stream(0)`."""
    state = _init_lanes(load_problem("qp2"), [config], [0])
    return _noisy_gradients(grad[None], state, 1)[0]


class TestStochasticGradient:
    """The solver's gradient draw g = grad + sqrt(eps) * z."""

    def test_zero_variance_is_exact(self):
        pb = load_problem("qp2")
        x = np.array([0.7, -0.2])
        grad = _at(pb, x).grad[0]
        g = _noisy_gradient(grad, SolverConfig(noise_seed=42))
        np.testing.assert_array_equal(g, grad)

    def test_same_seed_same_draw(self):
        pb = load_problem("qp2")
        config = SolverConfig(noise=1e-1, noise_seed=7)
        x = np.array([1.0, 0.0])
        grad = _at(pb, x).grad[0]
        g1 = _noisy_gradient(grad, config)
        g2 = _noisy_gradient(grad, config)
        np.testing.assert_array_equal(g1, g2)

    def test_monte_carlo_mean_and_variance(self):
        # 1e5 draws at qp2's KKT point: mean within 0.01 per coordinate
        # (3 sigma = 0.003), per-coordinate variance within [0.09, 0.11],
        # and E||g - grad||^2 within 5% of n * eps.
        pb = load_problem("qp2")
        eps = 1e-1
        x = np.array([1.0, 0.0])
        grad = _at(pb, x).grad[0]
        config = SolverConfig(noise=eps, noise_seed=123)
        state = _init_lanes(pb, [config], [0])
        draws = np.array([
            _noisy_gradients(grad[None], state, config.max_iters)[0] for _ in range(100_000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), grad, atol=0.01)
        var = draws.var(axis=0)
        assert np.all(var >= 0.09) and np.all(var <= 0.11)
        mean_sq = ((draws - grad) ** 2).sum(axis=1).mean()
        assert abs(mean_sq - pb.n * eps) <= 0.05 * pb.n * eps


class TestStandardNormalBlock:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 60, 200])
    def test_block_equals_one_draw_per_iteration(self, n):
        # Box-Muller on the whole (B, k, 2 half) block gives each vector the
        # bits of its own transform, and leaves every stream where k draws do
        for B in (1, 2, 7, 40):
            for k in (1, 2, 63, 64):
                streams = [SolverConfig(noise_seed=B).stream(lane) for lane in range(B)]
                copies = [SolverConfig(noise_seed=B).stream(lane) for lane in range(B)]
                block = standard_normal_vector(streams, n, k)
                assert block.shape == (B, k, n)
                one_by_one = [standard_normal_vector(copies, n, 1)[:, 0] for _ in range(k)]
                for j in range(k):
                    assert block[:, j].tobytes() == one_by_one[j].tobytes(), (B, k, j)
                assert [s.bit_generator.state for s in streams] == [s.bit_generator.state for s in copies]


class TestBuiltins:
    @pytest.mark.parametrize("name", builtin_names())
    def test_known_kkt_residuals(self, name):
        pb = load_problem(name)
        assert pb.known_kkt is not None
        x_star, y_star = pb.known_kkt
        ev = _at(pb, x_star)
        assert np.abs(ev.grad[0] + ev.jac[0].T @ y_star).max() <= 1e-10
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
        ev = _at(pb, x_star)
        assert np.abs(ev.grad[0] + ev.jac[0].T @ y_star).max() <= 1e-10
        assert np.abs(ev.c).max() <= 1e-10

    def test_infeasible_starts(self):
        # the experiment protocol starts every built-in away from feasibility
        for pb in builtin_suite():
            assert np.abs(_at(pb, pb.x0).c).max() > 1e-3


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
        ev = _at(pb, x_ref)
        assert np.abs(ev.grad[0] + ev.jac[0].T @ y_ref).max() <= 1e-12
        assert np.abs(ev.c).max() <= 1e-12
        ev = _at(pb, [2.0, 0.0])
        np.testing.assert_array_equal(ev.f, [2.0])
        np.testing.assert_array_equal(ev.c, [[1.0]])
        np.testing.assert_array_equal(pb.x0, np.zeros(2))

    def test_flat_row_major_arrays(self, tmp_path):
        spec = {
            "name": "flat", "n": 2, "m": 1, "kind": "quadratic_linear",
            "Q": [2.0, 0.0, 0.0, 2.0], "g0": [1.0, 0.0], "A": [1.0, -1.0], "b": [0.0],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(spec))
        pb = load_problem(str(path))
        np.testing.assert_array_equal(_at(pb, [1.0, 1.0]).grad, [[3.0, 2.0]])

    @pytest.mark.parametrize("mutation, fragment", [
        (lambda s: s.pop("Q"), "missing"),
        (lambda s: s.update(kind="nonlinear"), "kind"),
        (lambda s: s.update(Q=[[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (lambda s: s.update(b=[1.0, 2.0]), "'b'"),
        (lambda s: s.update(extra=1), "unknown"),
        (lambda s: s.update(n=0), "0 < m <= n"),
        (lambda s: s.update(A=[[1.0]]), "'A'"),
        (lambda s: s.update(name="a,b"), "'name'"),
        (lambda s: s.update(name='say "hi"'), "'name'"),
        (lambda s: s.update(name="two\nlines"), "'name'"),
        (lambda s: s.update(name="cr\r"), "'name'"),
        (lambda s: s.update(n=2.7), "'n'/'m' must be JSON integers"),
        (lambda s: s.update(n=2.0), "'n'/'m' must be JSON integers"),
        (lambda s: s.update(n="2"), "'n'/'m' must be JSON integers"),
        (lambda s: s.update(m=True), "'n'/'m' must be JSON integers"),
        (lambda s: s.update(Q=[[float("inf"), 0.0], [0.0, 1.0]]), "field 'Q' must hold finite"),
        (lambda s: s.update(Q=[[float("nan"), 0.0], [0.0, 1.0]]), "field 'Q' must hold finite"),
        (lambda s: s.update(g0=[0.0, float("nan")]), "field 'g0' must hold finite"),
        (lambda s: s.update(A=[[1.0, -float("inf")]]), "field 'A' must hold finite"),
        (lambda s: s.update(b=[float("nan")]), "field 'b' must hold finite"),
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
