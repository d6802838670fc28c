import dataclasses
import json
import math
import time

import numpy as np
import pytest

import tssqp.solver
from tssqp import (
    ConfigError,
    EmptyInput,
    ExperimentPlan,
    ResultRow,
    SolverConfig,
    audit_trace,
    load_problem,
    run_experiment,
    run_lanes,
    run_seed,
    summarize,
    to_csv,
    to_json,
)
from tssqp.harness import CSV_COLUMNS


def _plan(**kwargs) -> ExperimentPlan:
    base = dict(problems=("qp2",), strategies=("linesearch",),
                noise_levels=(0.0,), trials=2, base_seed=0,
                config=SolverConfig(max_iters=50))
    base.update(kwargs)
    return ExperimentPlan(**base)


def _row(**kwargs) -> ResultRow:
    base = dict(problem="p", strategy="linesearch", noise=0.1, trial=0,
                status="converged", feas_error=1.0, stat_error=1.0,
                iters=10, wall_ms=0.0)
    base.update(kwargs)
    return ResultRow(**base)


class TestRunExperiment:
    def test_cardinality(self):
        rows = run_experiment(_plan())
        assert len(rows) == 2
        assert sorted(r.trial for r in rows) == [0, 1]

    def test_rows_sorted_by_key(self):
        plan = _plan(problems=("sphere3", "qp2"), strategies=("linesearch", "fixed"),
                     noise_levels=(1e-3, 0.0), trials=2)
        rows = run_experiment(plan)
        keys = [r.key for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 2 * 2 * 2

    def test_repeat_runs_are_byte_identical(self):
        plan = _plan(problems=("qp2", "sphere3"), noise_levels=(1e-3,), trials=3)
        a = to_csv(run_experiment(plan))
        b = to_csv(run_experiment(plan))
        assert a == b

    def test_failures_are_rows_not_omissions(self, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "name": "singular", "n": 2, "m": 2, "kind": "quadratic_linear",
            "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, 0.0],
            "A": [[1.0, 1.0], [2.0, 2.0]], "b": [1.0, 2.0],
        }))
        rows = run_experiment(_plan(problems=(str(path), "qp2")))
        assert len(rows) == 4
        failed = [r for r in rows if r.problem == "singular"]
        assert all(r.status == "failed:rank_deficient_jacobian" for r in failed)

    def test_two_sources_of_one_problem_name_are_rejected(self, tmp_path):
        # rows are keyed and seeded by problem name, so two sources of one name would collide
        paths = []
        for i, name in enumerate(("same", "same", "qp2")):
            path = tmp_path / f"p{i}.json"
            path.write_text(json.dumps({
                "name": name, "n": 2, "m": 1, "kind": "quadratic_linear",
                "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, float(i)], "A": [[1.0, 1.0]], "b": [1.0],
            }))
            paths.append(str(path))
        for sources in ((paths[0], paths[1]), ("qp2", paths[2])):
            with pytest.raises(ConfigError) as exc:
                run_experiment(_plan(problems=sources))
            assert all(repr(source) in str(exc.value) for source in sources)

    def test_seed_hash_is_stable_and_keyed(self):
        s = run_seed(0, "qp2", "linesearch", 0.1, 3)
        assert s == run_seed(0, "qp2", "linesearch", 0.1, 3)
        others = {
            run_seed(1, "qp2", "linesearch", 0.1, 3),
            run_seed(0, "sphere3", "linesearch", 0.1, 3),
            run_seed(0, "qp2", "fixed", 0.1, 3),
            run_seed(0, "qp2", "linesearch", 0.2, 3),
            run_seed(0, "qp2", "linesearch", 0.1, 4),
        }
        assert s not in others and len(others) == 5

    def test_adding_a_problem_leaves_other_rows_unchanged(self):
        small = run_experiment(_plan(problems=("qp2",), noise_levels=(1e-3,), trials=3))
        big = run_experiment(_plan(problems=("qp2", "sphere3"), noise_levels=(1e-3,), trials=3))
        big_qp2 = [r for r in big if r.problem == "qp2"]
        assert to_csv(small) == to_csv(big_qp2)

    def test_wall_ms_deterministic_by_default(self, monkeypatch):
        monkeypatch.delenv("TSSQP_TIMING", raising=False)
        rows = run_experiment(_plan())
        assert all(r.wall_ms == 0.0 for r in rows)
        monkeypatch.setenv("TSSQP_TIMING", "1")
        rows = run_experiment(_plan())
        assert all(r.wall_ms > 0.0 for r in rows)

    def test_audit_attaches_reports(self):
        rows = run_experiment(_plan(), audit=True)
        assert all(r.audit is not None and r.audit.passed for r in rows)

    def test_plan_validation(self):
        # a plan is checked when it is built; so is the config it carries
        with pytest.raises(ConfigError):
            SolverConfig(max_iters="5")
        for bad in (dict(trials=0), dict(strategies=("sgd",)), dict(noise_levels=(-1.0,)),
                    dict(noise_levels=(float("nan"),)), dict(noise_levels=(math.inf,)),
                    dict(trials=2.5), dict(trials=True), dict(base_seed=-1),
                    dict(problems=("qp2", "qp2")), dict(strategies=("fixed", "fixed")),
                    dict(noise_levels=(0.1, 0.1)), dict(noise_levels=("a",)), dict(noise_levels=()),
                    dict(config=SolverConfig(max_iters=0)),
                    dict(strategies=("adaptive",), config=SolverConfig(alpha_rule="backtrack")),
                    # an axis that is a bare string or cannot be iterated, and a problem source
                    # that is not a non-empty string
                    dict(problems="qp2"), dict(strategies="linesearch"), dict(noise_levels="0"),
                    dict(noise_levels=0.1), dict(problems=None), dict(problems=(3,)), dict(problems=("",)),
                    dict(problems=(b"qp2",)),
                    # iterable axes are checked like tuples: a numpy array, and a generator
                    dict(noise_levels=np.array([0.1, 0.1])), dict(noise_levels=np.array(0.1)),
                    dict(noise_levels=np.array([-1.0, 0.1])), dict(noise_levels=np.array([])),
                    dict(problems=(p for p in ("qp2", "qp2"))), dict(strategies=(s for s in ("sgd",))),
                    dict(noise_levels=(x for x in ()))):
            with pytest.raises(ConfigError):
                _plan(**bad)
        # a valid ndarray or generator axis runs as its tuple: the ndarray's entries are Python
        # floats, so the CSV prints 0.1, not np.float64(0.1), and has the tuple form's bytes
        plan = _plan(noise_levels=np.array([0.0, 0.1]), strategies=(s for s in ("linesearch", "fixed")))
        assert (plan.noise_levels, plan.strategies) == ((0.0, 0.1), ("linesearch", "fixed"))
        assert to_csv(run_experiment(plan)) == \
            to_csv(run_experiment(_plan(noise_levels=(0.0, 0.1), strategies=("linesearch", "fixed"))))

    def test_section6_shaped_plan(self):
        # 4 problems x 2 strategies x 3 noise levels x 20 trials = 480 rows
        plan = ExperimentPlan(
            problems=("qp2", "qplin5", "sphere3", "rosenlin2"),
            strategies=("linesearch", "ablation"),
            trials=20, base_seed=7, config=SolverConfig(max_iters=1000),
        )
        t0 = time.perf_counter()
        rows = run_experiment(plan)
        elapsed = time.perf_counter() - t0
        assert len(rows) == 480
        assert elapsed < 300.0
        assert not any(r.status.startswith("failed") for r in rows)


class TestRecordsOnlyForAudit:
    """A plan keeps its runs' records only when it is audited, and its rows do not depend on that."""

    # the plan of `tests/test_golden.py`'s GOLDEN_ARGV
    PLAN = ExperimentPlan(problems=("qplin5", "sphere3"), strategies=("fixed", "adaptive", "linesearch", "ablation"),
                          noise_levels=(0.0, 0.1), trials=3, config=SolverConfig(max_iters=200))

    def test_an_unaudited_plan_writes_no_record(self, monkeypatch):
        audited = run_experiment(self.PLAN, audit=True)

        def no_record(*args):
            raise AssertionError("a record row was written")

        monkeypatch.setattr(tssqp.solver, "_record", no_record)
        rows = run_experiment(self.PLAN, audit=False)
        assert all(row.audit is None for row in rows) and all(row.audit.passed for row in audited)
        assert to_csv(rows) == to_csv(audited) and to_json(rows) == to_json(audited)
        assert [row.iters for row in rows] == [row.iters for row in audited] and sum(row.iters for row in rows) > 0

    def test_a_trace_without_records_cannot_be_audited(self):
        pb = load_problem("sphere3")
        configs = [self.PLAN.config_for("linesearch", noise) for noise in self.PLAN.noise_levels]
        for recorded, bare in zip(run_lanes(pb, configs, [0, 1]), run_lanes(pb, configs, [0, 1], records=False)):
            assert bare.table is None and bare.iterations == recorded.iterations > 0
            assert [bare.status, bare.fail_reason, bare.feas_error, bare.stat_error, bare.x_final.tobytes()] == \
                [recorded.status, recorded.fail_reason, recorded.feas_error, recorded.stat_error,
                 recorded.x_final.tobytes()]
            with pytest.raises(ConfigError, match="without records"):
                audit_trace(bare, pb)
            with pytest.raises(ConfigError, match="without records"):
                bare.records

    def test_a_trace_of_no_iterations_still_audits_as_passed(self):
        pb = load_problem("sphere3")
        config = dataclasses.replace(self.PLAN.config, max_iters=0)
        (trace,) = run_lanes(pb, [config], [0])
        assert trace.table.shape == (0, 4 * pb.n + 11) and trace.iterations == 0 and trace.records == []
        report = audit_trace(trace, pb)
        assert report.passed and report.iterations == 0 and len(report.checks) == 9
        (bare,) = run_lanes(pb, [config], [0], records=False)
        with pytest.raises(ConfigError, match="without records"):
            audit_trace(bare, pb)


class TestSerialization:
    def test_csv_columns_exact(self):
        text = to_csv([_row()])
        header, line, tail = text.split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert line == "p,linesearch,0.1,0,converged,1.0,1.0,10,0.0"
        assert tail == ""

    def test_json_round_trip(self):
        rows = [_row(trial=t) for t in range(3)]
        payload = json.loads(to_json(rows))
        assert [r["trial"] for r in payload] == [0, 1, 2]
        assert set(payload[0]) == set(CSV_COLUMNS)


class TestSummarize:
    def test_five_number_summary(self):
        rows = [_row(trial=t, feas_error=v, stat_error=v)
                for t, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
        (entry,) = summarize(rows)
        assert (entry["feas_min"], entry["feas_q1"], entry["feas_median"],
                entry["feas_q3"], entry["feas_max"]) == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert entry["count"] == 5

    def test_single_row(self):
        (entry,) = summarize([_row(feas_error=0.25)])
        assert entry["feas_min"] == entry["feas_median"] == entry["feas_max"] == 0.25

    def test_group_by_problem(self):
        rows = [_row(problem=p, trial=t) for p in ("a", "b", "c") for t in range(2)]
        entries = summarize(rows, group_keys=("problem",))
        assert [e["problem"] for e in entries] == ["a", "b", "c"]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        rows = [_row(trial=t, feas_error=float(rng.uniform()), strategy=s)
                for t in range(8) for s in ("linesearch", "ablation")]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert summarize(rows) == summarize(shuffled)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_unknown_group_key(self):
        with pytest.raises(ConfigError):
            summarize([_row()], group_keys=("wall_ms",))
