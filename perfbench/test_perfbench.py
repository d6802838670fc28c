"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The tiny runs start the benchmark as a user would, with ``--seconds 1``
(one plan per workload, at the default seed, so plan 0 is checked against
its reference digest); together they take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _short_plans(tssqp, name: str, workdir: Path) -> workloads.Plans:
    plans = workloads.prepare(name, bench.DEFAULT_SEED, str(workdir), tssqp.builtin_names())
    return dataclasses.replace(plans, workload=dataclasses.replace(plans.workload, iters=20))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(bench.DEFAULT_SEED),
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        assert f"# {name} = " in proc.stdout
    if trace:
        per_iter = {name: result["metrics"][name]["value"] for name in
                    ("problems.evaluate.calls_per_iter", "linalg.svd.calls_per_iter")}
        # Seed code: a step-kernel SVD per iteration and a multiplier SVD per
        # observation, which is one more than the iterations of each run.
        assert 2.0 < per_iter["linalg.svd.calls_per_iter"] < 2.02
        if workload == "protocol":
            assert 3.0 < per_iter["problems.evaluate.calls_per_iter"] < 3.6
        if workload == "wide":
            assert 1.0 < per_iter["problems.evaluate.calls_per_iter"] < 1.02
    else:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_untraced_process_holds_the_original_functions(tmp_path):
    tssqp = bench.import_tssqp()
    import numpy
    import tracer
    from tssqp import cli, diagnostics, harness, linalg, problems, solver, stepsize

    originals = {
        (solver, "evaluate"): problems.evaluate,
        (solver, "standard_normal_vector"): problems.standard_normal_vector,
        (solver, "solve_step"): linalg.solve_step,
        (solver, "least_squares_multiplier"): linalg.least_squares_multiplier,
        (solver, "safeguarded_backtrack"): stepsize.safeguarded_backtrack,
        (solver, "adaptive_update"): stepsize.adaptive_update,
        (harness, "load_problem"): problems.load_problem,
        (harness, "audit_trace"): diagnostics.audit_trace,
        (diagnostics, "evaluate"): problems.evaluate,
        (cli, "run_experiment"): harness.run_experiment,
        (cli, "to_csv"): harness.to_csv,
        (cli, "to_json"): harness.to_json,
        (cli, "audits_to_json"): harness.audits_to_json,
        (numpy.linalg, "svd"): numpy.linalg._linalg.svd,
    }
    # Captured before any wrapper was installed.
    plain = {(solver, "step"): solver.step, (solver, "run"): solver.run, (cli, "main"): cli.main}

    with tracer.installed(tracer.Tracer()):
        assert len(tracer.installed_wrappers()) == len(tracer.TARGETS)
        with pytest.raises(RuntimeError):
            tracer.assert_untraced()

    plans = _short_plans(tssqp, "audited", tmp_path)
    tracer.assert_untraced()
    results = bench.run_loop(cli, plans, count=1)
    tracer.assert_untraced()
    assert len(results[0].rows) == plans.rows_per_plan
    for (module, attr), fn in {**originals, **plain}.items():
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"


def test_layer_metrics_take_self_time_from_child_spans():
    import tracer

    tr = tracer.Tracer()
    for name, _, _ in tracer.TARGETS:
        tr.wrap(name, None)
    spans = [  # (name, start, end, parent)
        ("cli.main", 0.0, 10.0, -1),
        ("solver.run", 1.0, 9.0, 0),
        ("problems.evaluate", 2.0, 3.0, 1),
        ("stepsize.safeguarded_backtrack", 4.0, 8.0, 1),
        ("problems.evaluate", 5.0, 6.0, 3),
    ]
    for name, start, end, parent in spans:
        tr.name_id.append(tr.names.index(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.run.append(0 if parent >= 0 else -1)
    tr.searches, tr.backtracks, tr.certified = 1, 0, 1
    tr.svd_shapes[((2, 5), True, True)] = 3

    m = {name: value for name, (value, _) in tracer.layer_metrics(tr, iterations=3, plans=1).items()}
    assert m["problems.evaluate.calls_per_iter"] == pytest.approx(2 / 3)
    assert m["problems.evaluate.self_us"] == pytest.approx(1e6)
    assert m["problems.evaluate.self_share"] == pytest.approx(0.2)
    assert m["stepsize.safeguarded_backtrack.self_us"] == pytest.approx(3e6)
    assert m["stepsize.search.trial_evals_per_search"] == 1
    assert m["stepsize.search.certified_frac"] == 1
    assert m["solver.run.self_us_per_iter"] == pytest.approx(1e6)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["stepsize.adaptive_update.self_us"] == 0
    # Full SVD of a 2x5 matrix: 4*25*2 + 8*5*4 + 9*8 = 432 operations.
    assert m["linalg.svd.flops_computed_per_iter"] == pytest.approx(432)


def test_digest_check_fails_when_one_row_is_perturbed(tmp_path):
    tssqp = bench.import_tssqp()
    plans = _short_plans(tssqp, "audited", tmp_path)
    res = bench.run_plan(tssqp.cli, plans, 0)
    reference = res.digest
    planned = plans.rows_per_plan
    assert workloads.check_plan(res.rows, res.audits, planned, reference) == []

    retimed = [dict(r, wall_ms=r["wall_ms"] + 1.0) for r in res.rows]
    assert workloads.check_plan(retimed, res.audits, planned, reference) == []

    row = res.rows[3]
    for change in ({"feas_error": math.nextafter(row["feas_error"], math.inf)},
                   {"iters": row["iters"] + 1},
                   {"status": "failed:evaluation_failure"}):
        rows = list(res.rows)
        rows[3] = dict(row, **change)
        assert workloads.check_plan(rows, res.audits, planned, reference) == [
            "rows differ from the reference digest"], change

    assert workloads.check_plan(res.rows[:-1], res.audits[:-1], planned)
    audits = [dict(a) for a in res.audits]
    audits[0] = dict(audits[0], report=dict(audits[0]["report"], passed=False))
    assert workloads.check_plan(res.rows, audits, planned) == ["1 audit reports did not pass"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "protocol", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
