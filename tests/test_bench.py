"""`benchmarks/bench.py` must keep running against the current package.

The script is loaded from its file, as `python3 benchmarks/bench.py` runs
it, and every table is taken at a tiny size: the criterion-6 plan with one
trial of 3 iterations in one fresh process, two lane counts, one benchmark
plan per workload and one kernel size.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"


def test_bench_writes_every_table_at_tiny_sizes(tmp_path):
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    data = bench.collect(repeats=1, trials=1, iters=3, lane_counts=(1, 2), sizes=(5,), batches=(1, 2),
                         budget_s=0.0, plans=1)
    path = bench.write(data, "smoke", tmp_path)
    assert path.name == "BENCH_smoke.json"
    written = json.loads(path.read_text())
    assert written["label"] == "smoke"
    assert set(written["machine"]["blas_thread_variables"]) == set(bench.BLAS_VARS)
    (run,) = written["criterion6"]["runs"]
    assert run["peak_rss_mb"] > 0 and run["wall_s"] > 0 and len(run["csv_sha256"]) == 16
    assert 0 < run["iterations"] <= 2 * 2 * 3 * len(bench.builtin_names())
    assert set(written["lanes"]) == {"1", "2"} and all(us > 0 for us in written["lanes"].values())
    assert set(written["plans"]) == set(bench.WORKLOADS)
    for table in written["plans"].values():
        (run,) = table["runs"]
        assert table["plans"] == 1 and table["correct"] is True and run["completed_frac"] == 1.0
        assert run["us_per_iter"] > 0 and run["peak_rss_mb"] > 0 and "setup_s" not in run
    kernels = {(k["kernel"], k.get("H"), k["B"]) for k in written["kernels"]}
    assert kernels == {(name, H, B) for B in (1, 2)
                       for name, H in (("factor_step", "SPD"), ("factor_step", "None"), ("factor_reduced_lu", None),
                                       ("solve_step", "SPD"), ("solve_step", "None"),
                                       ("least_squares_multiplier", None), ("backtrack_rows", None))}
    assert all(k["n"] == 5 and k["m"] == 1 and k["us"] > 0 for k in written["kernels"])
