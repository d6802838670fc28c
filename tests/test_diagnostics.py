import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tssqp.solver
from tssqp import (
    ConfigError,
    DimensionMismatch,
    ExperimentPlan,
    SolverConfig,
    audit_trace,
    builtin_names,
    evaluate,
    load_problem,
    run,
    run_experiment,
    tau_min,
)
from tssqp.solver import RECORD_SCALARS, STRATEGIES, record_fields
from oracles import (
    edit_records,
    error_measures,
    merit_phi,
    model_l,
    model_reduction,
    nu_upper_bound,
    random_instance,
)


class TestMeritPhi:
    def test_examples(self):
        assert merit_phi(2.0, 3.0, 0.25) == pytest.approx(3.5)
        assert merit_phi(4.0, 0.0, 0.3) == pytest.approx(1.2)
        assert merit_phi(-1.0, 0.5, 1.0) == pytest.approx(-0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            merit_phi(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            merit_phi(1.0, -1.0, 1.0)


class TestModelL:
    def test_zero_direction_anchors_at_merit(self):
        f, grad, c, J = 2.0, np.array([1.0, 2.0]), np.array([3.0]), np.array([[1.0, 0.0]])
        assert model_l(f, grad, c, J, 0.25, np.zeros(2)) == pytest.approx(
            merit_phi(f, np.abs(c).sum(), 0.25)
        )

    def test_linearized_feasible_direction(self):
        J = np.array([[1.0, 1.0]])
        c = np.array([2.0])
        d = np.array([-1.0, -1.0])  # J d = -c
        grad = np.array([0.5, 0.5])
        assert model_l(1.0, grad, c, J, 0.5, d) == pytest.approx(0.5 * (1.0 - 1.0))

    def test_arithmetic_example(self):
        val = model_l(0.0, np.array([1.0, 0.0]), np.array([1.0]),
                      np.array([[1.0, 0.0]]), 1.0, np.array([-1.0, 0.0]))
        assert val == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            model_l(0.0, np.zeros(2), np.zeros(1), np.eye(3), 1.0, np.zeros(2))


class TestModelReduction:
    def test_zero(self):
        assert model_reduction(np.zeros(2), 0.0, 1.0, np.zeros(2)) == 0.0

    def test_arithmetic(self):
        assert model_reduction(np.array([1.0, 0.0]), 1.0, 0.25,
                               np.array([-1.0, 0.0])) == pytest.approx(1.25)

    def test_identity_with_model_difference(self):
        # on directions with c + J d = 0 the closed form equals l(0) - l(d)
        rng = np.random.default_rng(21)
        for _ in range(50):
            H, J, g, c = random_instance(rng, n_max=12, m_max=5)
            n = J.shape[1]
            d = -np.linalg.pinv(J) @ c
            d += (np.eye(n) - np.linalg.pinv(J) @ J) @ rng.normal(size=n)
            tau = float(rng.uniform(0.05, 2.0))
            f = float(rng.normal())
            lhs = model_reduction(g, float(np.abs(c).sum()), tau, d)
            rhs = model_l(f, g, c, J, tau, np.zeros(n)) - model_l(f, g, c, J, tau, d)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestTauMin:
    # tau_min(sigma, kappa_beta, kappa_h, kappa_u, kappa_g, kappa_v)
    def test_unit_constants(self):
        assert tau_min(0.5, 1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_sigma_near_one(self):
        assert tau_min(1.0 - 1e-9, 1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_doubled_gradient_constant(self):
        assert tau_min(0.5, 1.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx(1.0 / 6.0)


def test_nu_upper_bound_formula():
    assert nu_upper_bound(0.5, 1.0, 0.25, 2.0, 1.0) == pytest.approx(0.5 / (2 * 1.5 + 4))


class TestErrorMeasures:
    def test_qp2_kkt_point(self):
        pb = load_problem("qp2")
        feas, stat, _ = error_measures(pb, pb.known_kkt[0])
        assert feas <= 1e-10 and stat <= 1e-10

    def test_qp2_origin(self):
        feas, stat, y = error_measures(load_problem("qp2"), np.zeros(2))
        assert feas == pytest.approx(1.0)
        assert stat == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(y, [0.0], atol=1e-14)

    def test_sphere3_stationary_maximizer(self):
        # at (1,1,1) the 1-d least-squares problem min_y ||(1,1,1) + 2y(1,1,1)||
        # is solved by y = -1/2 with zero residual
        feas, stat, y = error_measures(load_problem("sphere3"), np.ones(3))
        assert feas == pytest.approx(0.0, abs=1e-14)
        assert stat <= 1e-12
        np.testing.assert_allclose(y, [-0.5], atol=1e-12)


class TestAuditTrace:
    def _trace(self, name="sphere3", seed=0, **kwargs):
        base = dict(strategy="linesearch", max_iters=200)
        base.update(kwargs)
        pb = load_problem(name)
        return pb, run(pb, SolverConfig(**base), seed=seed)

    def test_clean_deterministic_trace_passes(self):
        pb, trace = self._trace()
        report = audit_trace(trace, pb)
        assert report.passed, report.to_json()
        names = {c.name for c in report.checks}
        assert "decrease_certificate" in names and "merit_parameter_inequality" in names

    def test_noisy_trace_passes(self):
        pb, trace = self._trace(noise=1e-1, noise_seed=2, max_iters=120)
        report = audit_trace(trace, pb)
        assert report.passed, report.to_json()

    def test_line_search_parameters_come_from_the_trace(self):
        # xi/rho far from the defaults: auditing with the defaults would count
        # backtracks against the wrong ceiling and certify the wrong decrease
        pb, trace = self._trace("lincirc2", seed=3, xi=1e-8, rho=0.9, max_iters=300,
                                noise=1e-1, noise_seed=1)
        assert trace.config.xi == 1e-8 and trace.config.rho == 0.9
        report = audit_trace(trace, pb)
        assert report.passed, report.to_json()

    def test_fault_injection_breaks_range_check(self):
        pb, trace = self._trace(max_iters=60)
        k_bad = len(trace.records) // 2
        corrupted = edit_records(trace, k_bad, alpha=trace.records[k_bad].alpha_hi + 1.0)
        bad = corrupted.records[k_bad]
        report = audit_trace(corrupted, pb)
        check = {c.name: c for c in report.checks}["alpha_in_range"]
        assert not check.passed
        assert check.worst_iteration == bad.k

    @staticmethod
    def _check(report, name):
        return {c.name: c for c in report.checks}[name]

    @pytest.mark.parametrize("name, corrupt", [
        ("tangential_in_null_space", lambda pb, r: {"u": r.u + 1e-3 * evaluate(pb, r.x[None])[0].jac[0, 0]}),
        ("u_v_orthogonal", lambda pb, r: {"u": r.u + 1e-3 * r.v}),
        ("normal_component_bound", lambda pb, r: {"sigma_min": r.sigma_min * 1e6}),
        ("backtrack_count_bound", lambda pb, r: {"n_backtracks": 10**6}),
        ("decrease_certificate", lambda pb, r: {"c_l1": 0.0}),
        ("safeguard_semantics", lambda pb, r: {"hit_safeguard": True, "alpha": r.alpha_hi}),
        ("direction_composition", lambda pb, r: {"d": r.d + 1e-3 * r.u}),
        ("stepsize_rule", lambda pb, r: {"alpha_lo": r.alpha_lo * 0.5}),
    ])
    def test_fault_injection_fails_its_check(self, name, corrupt):
        pb, trace = self._trace(max_iters=60)
        assert audit_trace(trace, pb).passed
        # a certified record past the first, with ||c|| and so v and the trial c nonzero
        i = next(i for i, r in enumerate(trace.records) if r.k > 0 and not r.hit_safeguard and r.c_l1 > 1e-3)
        rec = trace.records[i]
        check = self._check(audit_trace(edit_records(trace, i, **corrupt(pb, rec)), pb), name)
        assert not check.passed and check.violations == 1
        assert check.worst_iteration == rec.k and check.worst_margin > 0

    @pytest.mark.parametrize("name, k, corrupt", [
        ("backtrack_count_bound", 2, {"alpha_lo": -1.0}),  # no log of a negative range
        ("stepsize_rule", 0, {"c_l1": -1.0}),  # no square root of q0^2 + c_l1 < 0 in the replay
    ])
    def test_a_record_with_no_ceiling_or_rule_fails_with_a_nan_margin(self, name, k, corrupt):
        pb, trace = self._trace(max_iters=20)
        assert audit_trace(trace, pb).passed
        check = self._check(audit_trace(edit_records(trace, k, **corrupt), pb), name)
        assert not check.passed and math.isnan(check.worst_margin) and check.worst_iteration == k

    @pytest.mark.parametrize("shift_j, worst", [(2.0, "second"), (1.0, "first")])
    def test_two_violations_keep_the_larger_margin_and_the_first_of_a_tie(self, shift_j, worst):
        # fixed/lower: alpha_hi is the same on every record, so equal shifts give equal margins
        pb, trace = self._trace(strategy="fixed", max_iters=40)
        i, j = 5, 20
        hi = trace.records[i].alpha_hi
        assert trace.records[j].alpha_hi == hi
        corrupted = edit_records(edit_records(trace, i, alpha=hi + 1.0), j, alpha=hi + shift_j)
        check = self._check(audit_trace(corrupted, pb), "alpha_in_range")
        assert not check.passed and check.violations == 2
        assert check.worst_margin == (hi + shift_j) - hi
        assert check.worst_iteration == trace.records[j if worst == "second" else i].k

    def test_zero_record_trace_passes_without_calling_an_oracle(self):
        pb, trace = self._trace(max_iters=0)
        assert trace.records == []

        def never(X):
            raise AssertionError("the audit of a trace without records called an oracle")

        report = audit_trace(trace, dataclasses.replace(pb, eval_fn=never, c_fn=never))
        assert len(report.checks) == 11
        assert all(c.passed and c.violations == 0 and c.worst_iteration is None for c in report.checks)

    @pytest.mark.parametrize("strategy, passed", [("linesearch", False), ("ablation", True)])
    def test_a_single_stepsize_direction_fails_the_composition_check(self, strategy, passed):
        # every d rebuilt as beta (u + v), which scales the normal step by beta too: a
        # fault on a two-stepsize trace, and the same bits on an ablation trace
        pb, trace = self._trace(strategy=strategy, max_iters=60)
        table = trace.table.copy()
        _, u, v, d, scalars = record_fields(table, pb.n)
        d[:] = scalars[:, [RECORD_SCALARS.index("beta")]] * (u + v)
        check = self._check(audit_trace(dataclasses.replace(trace, table=table), pb), "direction_composition")
        assert check.passed is passed
        assert passed or check.violations == np.count_nonzero((v != 0).any(axis=1)) > 0

    def test_ill_conditioned_square_jacobians_pass_the_normal_check(self, tmp_path):
        # J v = -c is solved to about eps ||J|| ||v||; with one row of A within
        # 1e-8 of another (cond(A) ~ 1e9) ||v|| is large, and so is the residual
        ran = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = m = 11
            A = rng.normal(size=(m, n))
            A[-1] = A[0] + 1e-8 * rng.normal(size=n)
            B = rng.normal(size=(n, n))
            Q = B @ B.T / n + 0.1 * np.eye(n)
            path = tmp_path / f"ill{seed}.json"
            path.write_text(json.dumps({
                "name": path.stem, "n": n, "m": m, "kind": "quadratic_linear", "Q": ((Q + Q.T) / 2).tolist(),
                "g0": rng.normal(size=n).tolist(), "A": A.tolist(), "b": rng.normal(size=m).tolist()}))
            pb = load_problem(str(path))
            trace = run(pb, SolverConfig(strategy="linesearch", max_iters=30), seed=0)
            if trace.status == "failed":
                continue
            ran += 1
            report = audit_trace(trace, pb)
            assert report.passed, report.to_json()
        assert ran >= 30

    def test_perturbed_normal_component_fails_the_normal_check(self):
        pb, trace = self._trace(max_iters=40)
        rec = trace.records[0]
        v = rec.v + 1e-6 * np.abs(rec.v).max()
        corrupted = edit_records(trace, 0, v=v)
        check = {c.name: c for c in audit_trace(corrupted, pb).checks}["normal_solves_linearized"]
        assert {c.name: c.passed for c in audit_trace(trace, pb).checks}["normal_solves_linearized"]
        assert not check.passed and check.worst_iteration == rec.k

    def test_json_round_trip(self):
        pb, trace = self._trace(max_iters=40)
        payload = json.loads(audit_trace(trace, pb).to_json())
        assert payload["problem"] == "sphere3"
        assert payload["passed"] is True
        assert {c["check"] for c in payload["checks"]} >= {
            "tangential_in_null_space", "normal_component_bound", "alpha_in_range",
            "backtrack_count_bound", "decrease_certificate",
        }

    def test_fixed_backtrack_trace_audits(self):
        # the fixed strategy with alpha_rule backtrack runs the safeguarded search, so
        # the search's checks (count, certificate, safeguard) apply as for linesearch
        pb, trace = self._trace(strategy="fixed", alpha_rule="backtrack",
                                nu=0.5, eta=0.1, max_iters=150)
        report = audit_trace(trace, pb)
        assert report.passed, report.to_json()
        i = next(i for i, r in enumerate(trace.records) if r.k > 0 and not r.hit_safeguard and r.c_l1 > 1e-3)
        check = self._check(audit_trace(edit_records(trace, i, c_l1=0.0), pb), "decrease_certificate")
        assert not check.passed and check.worst_iteration == trace.records[i].k

    @pytest.mark.parametrize("strategy", ["linesearch", "fixed"])
    def test_one_oracle_call_of_each_kind_per_trace(self, strategy):
        pb, trace = self._trace(strategy=strategy, max_iters=200)
        calls = []

        def counted(oracle):
            def wrapper(X):
                calls.append((oracle.__name__, len(X)))
                return oracle(X)
            return wrapper

        assert audit_trace(trace, dataclasses.replace(pb, eval_fn=counted(pb.eval_fn), c_fn=counted(pb.c_fn))).passed
        certified = sum(not r.hit_safeguard for r in trace.records) if strategy == "linesearch" else 0
        assert calls == [("ev", len(trace.records))] + ([("con", certified)] if certified else [])

    def test_diverged_trace_fails_without_a_warning(self, tmp_path):
        # fixed alpha = nu = 3 on the one linear constraint x1 = 1 doubles |x1 - 1| and
        # flips its sign every step, until ||v|| overflows (k >= 513) and the run fails
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({
            "name": "diverge", "n": 3, "m": 1, "kind": "quadratic_linear", "Q": (1e-3 * np.eye(3)).tolist(),
            "g0": [0.0, 0.0, 0.0], "A": [[1.0, 0.0, 0.0]], "b": [1.0]}))
        pb = load_problem(str(path))
        trace = run(pb, SolverConfig(strategy="fixed", nu=3.0), seed=0)
        assert (trace.status, trace.fail_reason, trace.iterations) == ("failed", "evaluation_failure", 517)
        report = audit_trace(trace, pb)  # pytest turns a RuntimeWarning into an error
        assert not report.passed
        for name in ("u_v_orthogonal", "normal_component_bound"):
            check = self._check(report, name)
            assert not check.passed and check.violations == 4 and check.worst_iteration == 513
            assert np.isnan(check.worst_margin)
        assert json.loads(report.to_json())["passed"] is False

    def test_diverged_trace_with_tangential_steps_audits(self, tmp_path):
        # as above, but g0 gives u != 0, so the noise-free merit check runs with the
        # trace's measured constants, and kappa_v = max ||v|| / ||c|| is NaN
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({
            "name": "diverge", "n": 3, "m": 1, "kind": "quadratic_linear", "Q": (1e-3 * np.eye(3)).tolist(),
            "g0": [0.0, 1.0, 1.0], "A": [[1.0, 0.0, 0.0]], "b": [1.0]}))
        plan = ExperimentPlan(problems=(str(path),), strategies=("fixed",), noise_levels=(0.0,), trials=1,
                              config=SolverConfig(nu=3.0))
        (row,) = run_experiment(plan, audit=True)
        assert row.status == "failed:evaluation_failure"
        check = self._check(row.audit, "merit_parameter_inequality")
        assert not check.passed and check.violations == row.iters and np.isnan(check.worst_margin)

    def test_the_audit_builds_no_record_objects(self, monkeypatch):
        # the solver stores records as columns and the auditor reads those columns;
        # an IterationRecord is built only on access to Trace.records
        def no_record(*args):
            raise AssertionError("an IterationRecord was built")

        monkeypatch.setattr(tssqp.solver, "IterationRecord", no_record)
        plan = ExperimentPlan(problems=("qplin5", "sphere3"), strategies=("linesearch", "fixed"),
                              noise_levels=(0.0, 0.1), trials=2, config=SolverConfig(max_iters=150))
        rows = run_experiment(plan, audit=True)
        assert len(rows) == 16 and all(row.audit.passed for row in rows)
        assert sum(row.iters for row in rows) > 16 * 10

    def test_problem_must_be_the_traced_one(self):
        pb, trace = self._trace("lincirc2", max_iters=20)
        other = load_problem("projball2")
        assert (other.n, other.m) == (pb.n, pb.m)
        with pytest.raises(ConfigError, match="projball2"):
            audit_trace(trace, other)
        renamed = dataclasses.replace(load_problem("sphere3"), name="lincirc2")
        with pytest.raises(ConfigError, match="n=3"):
            audit_trace(trace, renamed)


IDENTITY_SOURCES = [name for name in builtin_names() if load_problem(name).h_matrix is None] + [
    str(Path(__file__).parent / "data" / "golden_wide.json")]


class TestIdentityH:
    """A problem without `h_matrix` has H = I: the solver and the audit give the bits of np.eye(n)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("source", IDENTITY_SOURCES)
    def test_none_and_an_explicit_identity_give_the_same_trace_and_audit(self, source, strategy):
        problem = load_problem(source)
        eye = dataclasses.replace(problem, h_matrix=np.eye(problem.n))
        config = SolverConfig(strategy=strategy)
        none_trace, eye_trace = run(problem, config), run(eye, config)
        assert none_trace.table.tobytes() == eye_trace.table.tobytes()
        none_report, eye_report = audit_trace(none_trace, problem), audit_trace(eye_trace, eye)
        assert none_report.passed and eye_report.passed, none_report.to_json()
        assert none_report.payload() == eye_report.payload()

    def test_a_noise_free_audit_without_h_takes_no_matrix_norm(self, monkeypatch):
        problem = load_problem("sphere3")
        trace = run(problem, SolverConfig(max_iters=50))
        calls = []
        monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append(args))
        assert audit_trace(trace, problem).passed
        assert calls == []
