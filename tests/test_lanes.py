"""Lanes: a cell's runs advanced as one stacked iteration give the bits of each run alone."""

import dataclasses

import numpy as np
import pytest

import tssqp.solver
from tssqp import (
    ConfigError,
    ExperimentPlan,
    Problem,
    SolverConfig,
    audit_trace,
    linalg,
    load_problem,
    run,
    run_lanes,
    run_seed,
)
from tssqp.harness import ResultRow, _status_token, audits_to_json, run_experiment, to_csv
from tssqp.solver import NOISE_BLOCK_ITERS, _init_lanes, _noisy_gradients
from oracles import count_getrf, count_svds
from test_alpha_rules import _digest


def _solo_rows(plan: ExperimentPlan, audit: bool = True) -> list[ResultRow]:
    """The plan's rows built from one `run` per run, as before lanes existed."""
    rows = []
    for name in plan.problems:
        problem = load_problem(name)
        for strategy in plan.strategies:
            for noise in plan.noise_levels:
                for trial in range(plan.trials):
                    trace = run(problem, plan.config_for(strategy, noise),
                                seed=run_seed(plan.base_seed, name, strategy, noise, trial))
                    rows.append(ResultRow(
                        problem=name, strategy=strategy, noise=noise, trial=trial,
                        status=_status_token(trace), feas_error=trace.feas_error,
                        stat_error=trace.stat_error, iters=trace.iterations, wall_ms=0.0,
                        audit=audit_trace(trace, problem) if audit else None,
                    ))
    rows.sort(key=lambda r: r.key)
    return rows


def test_rows_and_audits_do_not_depend_on_batching(monkeypatch):
    monkeypatch.delenv("TSSQP_TIMING", raising=False)
    plan = ExperimentPlan(
        problems=("sphere3", "qplin5", "rosenlin2"),
        strategies=("linesearch", "adaptive"),
        noise_levels=(0.0, 0.1),
        trials=3, base_seed=11, config=SolverConfig(max_iters=150),
    )
    lanes = run_experiment(plan, audit=True)
    solo = _solo_rows(plan)
    assert to_csv(lanes) == to_csv(solo)
    assert audits_to_json(lanes) == audits_to_json(solo)


@pytest.mark.parametrize("name, strategy, rule", [
    ("quadsphere4", "linesearch", "lower"),
    ("lincirc2", "ablation", "lower"),
    ("qplin5", "fixed", "backtrack"),
    ("projball2", "adaptive", "upper"),
    ("qp2", "fixed", "upper"),
])
def test_every_record_matches_its_solo_run(name, strategy, rule):
    problem = load_problem(name)
    configs = [SolverConfig(strategy=strategy, alpha_rule=rule, max_iters=120, noise=eps, noise_seed=3)
               for eps in (0.0, 1e-5, 0.1, 0.1, 0.0)]
    seeds = [5, 6, 7, 8, 9]
    for lane, config, seed in zip(run_lanes(problem, configs, seeds), configs, seeds):
        alone = run(problem, config, seed=seed)
        assert (lane.status, lane.fail_reason, lane.iterations) == (alone.status, alone.fail_reason, alone.iterations)
        assert (repr(lane.feas_error), repr(lane.stat_error)) == (repr(alone.feas_error), repr(alone.stat_error))
        assert _digest(lane) == _digest(alone)


def test_a_failed_lane_leaves_the_others_alone(monkeypatch):
    # u'u overflows on the 1e308 lanes, so adaptive's beta underflows there
    monkeypatch.delenv("TSSQP_TIMING", raising=False)
    plan = ExperimentPlan(problems=("sphere3",), strategies=("adaptive",), noise_levels=(0.0, 1e308),
                          trials=2, base_seed=3, config=SolverConfig(max_iters=100))
    rows = run_experiment(plan, audit=True)
    assert [r.status for r in rows] == ["budget_exhausted"] * 2 + ["failed:stepsize_underflow"] * 2
    solo = _solo_rows(plan)
    assert to_csv(rows) == to_csv(solo)
    assert audits_to_json(rows) == audits_to_json(solo)


def _ridge2() -> Problem:
    """c = x1 - 1 and f = x2^2 / 2, with c non-finite beyond the ridge x2 = 0.05.

    Only gradient noise moves x2 off 0, so only a noisy lane can cross.
    """
    def con(x):
        return np.where(x[..., 1:] <= 0.05, x[..., :1] - 1.0, np.inf)

    def ev(x):
        grad = np.zeros(x.shape)
        grad[..., 1] = x[..., 1]
        return 0.5 * x[..., 1] ** 2, grad, con(x), np.array([[1.0, 0.0]])

    return Problem(name="ridge2", n=2, m=1, eval_fn=ev, c_fn=con, x0=np.zeros(2))


def test_a_lane_failing_in_the_search_ends_alone():
    problem = _ridge2()
    configs = [SolverConfig(max_iters=60, noise=eps, noise_seed=4) for eps in (0.0, 1.0, 1e-6)]
    seeds = [0, 1, 2]
    lanes = run_lanes(problem, configs, seeds)
    assert [lane.fail_reason for lane in lanes] == [None, "evaluation_failure", None]
    for lane, config, seed in zip(lanes, configs, seeds):
        alone = run(problem, config, seed=seed)
        assert (lane.status, lane.fail_reason, lane.iterations) == (alone.status, alone.fail_reason, alone.iterations)
        assert _digest(lane) == _digest(alone)


def _ridge40() -> Problem:
    """f = ||x||^2 / 2 on x1 = 1, x2 = 0 (k = 38), with a non-finite gradient where x3 > 0.1.

    Only gradient noise moves x3 off 0, so only a noisy lane can cross.
    """
    b = np.array([1.0, 0.0])

    def con(x):
        return x[..., :2] - b

    def ev(x):
        grad = np.where(x[..., 2:3] <= 0.1, x, np.inf)
        return 0.5 * (x * x).sum(axis=-1), grad, con(x), np.eye(2, 40)

    return Problem(name="ridge40", n=40, m=2, eval_fn=ev, c_fn=con, x0=np.zeros(40))


def test_a_lane_ending_after_its_reused_lu_leaves_the_others_alone(monkeypatch):
    # the LU of Z'HZ is made once per lane on the stack's second iteration and
    # restricted with the other factors when the middle lane ends
    bound = linalg._LAPACK is not None
    getrf = count_getrf(monkeypatch)
    configs = [SolverConfig(max_iters=40, noise=eps) for eps in (1e-6, 1.0, 1e-4)]
    lanes = _assert_lanes_match_solo(_ridge40(), configs, [0, 1, 2])
    assert [(t.fail_reason, t.iterations) for t in lanes] == [(None, 40), ("evaluation_failure", 13), (None, 40)]
    assert len(getrf) == (3 + 3 if bound else 0)  # the stack's LUs, then one for each lane's run alone


def test_configs_may_differ_only_in_noise():
    problem = load_problem("qp2")
    with pytest.raises(ConfigError):
        run_lanes(problem, [SolverConfig(), SolverConfig(eta=0.2)], [0, 1])
    with pytest.raises(ConfigError):
        run_lanes(problem, [SolverConfig()], [0, 1])


NUMPY_FIELDS = [("eta", np.float32(0.1)), ("theta", np.float64(0.7)), ("noise", np.float32(0.1)),
                ("max_iters", np.int64(60)), ("noise_seed", np.int64(3))]


@pytest.mark.parametrize("strategy", tssqp.solver.STRATEGIES)
@pytest.mark.parametrize("name, value", NUMPY_FIELDS, ids=[f"{n}-{type(v).__name__}" for n, v in NUMPY_FIELDS])
def test_a_numpy_scalar_field_runs_as_its_python_value(name, value, strategy):
    # equal configs must run the same arithmetic: a float32 eta kept as such makes the stepsizes float32
    problem = load_problem("sphere3")
    base = dict(strategy=strategy, max_iters=60, noise=0.01, noise_seed=2)
    numpy_config = SolverConfig(**{**base, name: value})
    python_config = SolverConfig(**{**base, name: value.item()})
    assert numpy_config == python_config and type(getattr(numpy_config, name)) is type(value.item())
    alone = _digest(run(problem, python_config, 1))
    assert _digest(run(problem, numpy_config, 1)) == alone
    assert _digest(run_lanes(problem, [numpy_config, python_config], [1, 1])[1]) == alone


def test_noise_free_lane_keeps_gradient_bits_and_draws_nothing():
    configs = [SolverConfig(noise=0.0, noise_seed=2), SolverConfig(noise=0.1, noise_seed=2)]
    state = _init_lanes(load_problem("qp2"), configs, [0, 1])
    before = state.streams[0].bit_generator.state
    grad = np.array([[-0.0, 1.5], [-0.0, 1.5]])
    for _ in range(2 * NOISE_BLOCK_ITERS + 1):  # across two refills of the noise block
        g = _noisy_gradients(grad, state, configs[0].max_iters)
        assert g[0].tobytes() == grad[0].tobytes()  # grad + 0 * z would turn -0.0 into 0.0
        assert state.streams[0].bit_generator.state == before
        assert g[1].tobytes() != grad[1].tobytes()
    assert state.noise_at == 1


def test_a_lane_leaving_mid_block_leaves_the_others_alone():
    # blocks start at k = 0, 64 and 128; the noisy middle lane crosses the
    # ridge at k = 86 and leaves with part of the second block unspent
    configs = [SolverConfig(max_iters=150, stat_tol=1e-300, noise=eps, noise_seed=4)
               for eps in (1e-6, 1e-2, 1e-3)]
    lanes = _assert_lanes_match_solo(_ridge2(), configs, [1, 0, 2])
    assert [(t.fail_reason, t.iterations) for t in lanes] == [(None, 150), ("evaluation_failure", 86), (None, 150)]
    assert NOISE_BLOCK_ITERS < lanes[1].iterations < 2 * NOISE_BLOCK_ITERS


def test_lane_wall_time_is_set_per_lane():
    problem = load_problem("sphere3")
    configs = [SolverConfig(max_iters=300, noise=eps) for eps in (0.0, 0.1)]
    fast, slow = run_lanes(problem, configs, [0, 0])
    assert fast.iterations < slow.iterations
    assert 0.0 < fast.wall_s <= slow.wall_s


@pytest.mark.parametrize("name", ["qp2", "sphere3"])  # one J for every point, and one J per point
def test_factorization_failure_ends_every_lane_with_its_token(name):
    problem = dataclasses.replace(load_problem(name), h_matrix=-np.eye(load_problem(name).n))
    configs = [SolverConfig(noise=eps, noise_seed=1) for eps in (0.0, 0.1)]
    lanes = run_lanes(problem, configs, [0, 1])
    solo = [run(problem, config, seed=seed) for config, seed in zip(configs, [0, 1])]
    assert [t.fail_reason for t in lanes] == [t.fail_reason for t in solo] == ["indefinite_reduced_hessian"] * 2


def _switching(name: str, ok, bad, mover: int, h_matrix=None) -> Problem:
    """A problem whose Jacobian, one per point, switches from `ok` to `bad`
    once |x[mover]| exceeds 0.05.

    f = x[mover]^2 / 2 and c = ok x - 1, from x0 = 0.  `mover` spans Null(ok),
    so only gradient noise moves it: a noise-free lane keeps `ok` and goes on,
    and a noisy lane reaches `bad` and fails there.
    """
    ok, bad = np.array(ok, dtype=float), np.array(bad, dtype=float)
    m, n = ok.shape

    def con(x):
        return np.matmul(ok, x[..., None])[..., 0] - 1.0

    def ev(x):
        t = x[..., mover]
        grad = np.zeros(x.shape)
        grad[..., mover] = t
        jac = np.where((np.abs(t) > 0.05)[..., None, None], bad, ok)
        return 0.5 * t * t, grad, con(x), jac

    return Problem(name=name, n=n, m=m, eval_fn=ev, c_fn=con, x0=np.zeros(n), h_matrix=h_matrix)


_PARTIAL_FAILURES = {
    "rank_m1": (_switching("rank_m1", [[1.0, 0.0]], [[0.0, 0.0]], 1), "rank_deficient_jacobian"),
    "rank_m2": (_switching("rank_m2", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                           [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 1), "rank_deficient_jacobian"),
    # Z spans e1 under ok (Z'HZ = 1) and e2 under bad (Z'HZ = -1)
    "indefinite": (_switching("indefinite", [[0.0, 1.0]], [[1.0, 0.0]], 0, np.diag([1.0, -1.0])),
                   "indefinite_reduced_hessian"),
}


def _assert_lanes_match_solo(problem, configs, seeds, x0=None) -> list:
    lanes = run_lanes(problem, configs, seeds, x0)
    for lane, config, seed in zip(lanes, configs, seeds):
        alone = run(problem, config, seed=seed, x0=x0)
        assert (lane.status, lane.fail_reason, lane.iterations) == (alone.status, alone.fail_reason, alone.iterations)
        assert _digest(lane) == _digest(alone)
    return lanes


@pytest.mark.parametrize("case", sorted(_PARTIAL_FAILURES))
@pytest.mark.parametrize("strategy", ["linesearch", "ablation"])
def test_some_lanes_fail_a_factorization_and_the_others_go_on(case, strategy):
    problem, token = _PARTIAL_FAILURES[case]
    configs = [SolverConfig(strategy=strategy, max_iters=80, noise=eps, noise_seed=5)
               for eps in (0.0, 1.0, 0.0, 1.0, 0.0)]
    lanes = _assert_lanes_match_solo(problem, configs, [0, 1, 2, 3, 4])
    assert [t.fail_reason for t in lanes[::2]] == [None] * 3
    assert [t.fail_reason for t in lanes[1::2]] == [token] * 2
    assert all(t.iterations > 0 for t in lanes)


@pytest.mark.parametrize("name", ["qp2", "sphere3"])  # one J for every point, and one J per point
def test_converged_lanes_end_before_their_step_factorization_fails(name):
    # Z'HZ = -Z'Z fails its check, but every lane starts at a KKT point
    base = load_problem(name)
    problem = dataclasses.replace(base, h_matrix=-np.eye(base.n))
    configs = [SolverConfig(noise=eps, noise_seed=1) for eps in (0.0, 0.1, 1e-5)]
    lanes = _assert_lanes_match_solo(problem, configs, [0, 1, 2], x0=base.known_kkt[0])
    assert [(t.status, t.iterations) for t in lanes] == [("converged", 0)] * 3


def _svds_per_iteration(monkeypatch, problem, configs) -> tuple[list, list[int]]:
    """The traces of a cell and the SVD calls (`linalg`'s bindings) of each of its full iterations."""
    svds, marks = count_svds(monkeypatch), []

    def marking_evaluate(*args, evaluate=tssqp.solver.evaluate, **kwargs):
        marks.append(len(svds))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(tssqp.solver, "evaluate", marking_evaluate)
    traces = run_lanes(problem, configs, list(range(len(configs))))
    return traces, [b - a for a, b in zip(marks, marks[1:])]


@pytest.mark.parametrize("case, per_iteration", [("rank_m1", 1), ("rank_m2", 2), ("indefinite", 1)])
def test_failed_lanes_cost_no_factorization(monkeypatch, case, per_iteration):
    # the survivors' factors are restricted, never computed again; a J stack
    # whose bytes stay the same is not factored again either
    problem, token = _PARTIAL_FAILURES[case]
    configs = [SolverConfig(strategy="ablation", max_iters=20, noise=eps, noise_seed=5)
               for eps in (0.0, 1.0, 1.0)]
    traces, svds = _svds_per_iteration(monkeypatch, problem, configs)
    assert [t.fail_reason for t in traces] == [None, token, token]
    left = max(t.iterations for t in traces[1:])  # the iteration whose factorization ends the last failing lane
    assert svds[0] == svds[left] == per_iteration and set(svds[:left]) <= {0, per_iteration}
    assert svds[left + 1:] == [0] * (19 - left)
    _, svds = _svds_per_iteration(monkeypatch, problem, configs[:1])
    assert svds == [per_iteration] + [0] * 19
