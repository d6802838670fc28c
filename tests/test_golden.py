"""Output bytes pinned across commits.

`tests/data/golden_plan.csv` and its `.audit.json` sidecar hold the output of
`GOLDEN_ARGV`.  A refactor that changes no arithmetic must reproduce them byte
for byte; a change that is meant to alter numerics regenerates them with

    PYTHONPATH=src python -m tssqp.cli run <GOLDEN_ARGV args> --out tests/data/golden_plan.csv --audit

and says so.

The golden plan runs at k = n - m <= 3, where several batched or alternative
kernels happen to give the same bits as the ones in use.  `WIDE_ARGV` runs the
seeded n = 60, m = 12 `quadratic_linear` file `tests/data/golden_wide.json`
(k = 48), whose output `tests/data/golden_wide.csv` and its `.audit.json`
sidecar pin the bytes where they do not.  Its rows report errors at the first
feasible iterate, often after a step or two, so `tests/data/golden_wide.records.json`
also holds a SHA-256 of every record of each of its runs.
`python tests/test_golden.py` rewrites the problem file from `wide_problem()`
and the record digests from `wide_digests()`.
"""

import json
from pathlib import Path

import pytest

import tssqp.solver
from tssqp import ExperimentPlan, SolverConfig, linalg, load_problem, run, run_seed
from tssqp.cli import main
from test_alpha_rules import _digest

DATA = Path(__file__).parent / "data"

GOLDEN_ARGV = [
    "run", "--problem", "qplin5", "--problem", "sphere3",
    "--strategy", "fixed", "--strategy", "adaptive",
    "--strategy", "linesearch", "--strategy", "ablation",
    "--noise", "0", "--noise", "0.1", "--seeds", "3", "--iters", "200",
]

WIDE_ARGV = [
    "run", "--problem", str(DATA / "golden_wide.json"),
    "--strategy", "fixed", "--strategy", "adaptive", "--strategy", "linesearch",
    "--noise", "0", "--noise", "0.1", "--seeds", "2", "--iters", "100",
]


def wide_problem(n: int = 60, m: int = 12) -> dict:
    """Seeded quadratic_linear instance: Q = I + B B'/n, Gaussian A, b and g0."""
    import numpy as np

    rng = np.random.default_rng([2024, n, m])
    B = rng.standard_normal((n, n))
    Q = np.eye(n) + B @ B.T / n
    Q = 0.5 * (Q + Q.T)
    return {"name": "golden_wide", "n": n, "m": m, "kind": "quadratic_linear",
            "Q": Q.ravel().tolist(), "g0": rng.standard_normal(n).tolist(),
            "A": rng.standard_normal((m, n)).ravel().tolist(), "b": rng.standard_normal(m).tolist()}


def _assert_golden(argv, stem, tmp_path, monkeypatch):
    monkeypatch.delenv("TSSQP_TIMING", raising=False)
    out = tmp_path / f"{stem}.csv"
    assert main(argv + ["--out", str(out), "--audit"]) == 0
    assert out.read_bytes() == (DATA / f"{stem}.csv").read_bytes()
    audit = tmp_path / f"{stem}.csv.audit.json"
    assert audit.read_bytes() == (DATA / f"{stem}.csv.audit.json").read_bytes()


def wide_digests() -> dict:
    """Record digests of the runs of WIDE_ARGV, each run alone through `run`."""
    problem = load_problem(str(DATA / "golden_wide.json"))
    plan = ExperimentPlan(problems=(problem.name,), config=SolverConfig(max_iters=100))
    out = {}
    for strategy in ("fixed", "adaptive", "linesearch"):
        for noise in (0.0, 0.1):
            for trial in range(2):
                seed = run_seed(plan.base_seed, problem.name, strategy, noise, trial)
                trace = run(problem, plan.config_for(strategy, noise), seed=seed)
                out[f"{strategy}|{noise!r}|{trial}"] = [repr(trace.status), trace.iterations, _digest(trace)]
    return out


def test_golden_plan_bytes(tmp_path, monkeypatch):
    _assert_golden(GOLDEN_ARGV, "golden_plan", tmp_path, monkeypatch)


def test_golden_wide_bytes(tmp_path, monkeypatch):
    _assert_golden(WIDE_ARGV, "golden_wide", tmp_path, monkeypatch)


@pytest.mark.parametrize("argv, stem", [(GOLDEN_ARGV, "golden_plan"), (WIDE_ARGV, "golden_wide")],
                         ids=["golden_plan", "golden_wide"])
def test_golden_csv_without_the_audit(argv, stem, tmp_path, monkeypatch):
    # a plan without --audit keeps no records, and writes the same CSV bytes
    monkeypatch.delenv("TSSQP_TIMING", raising=False)
    out = tmp_path / f"{stem}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{stem}.csv").read_bytes()
    assert not (tmp_path / f"{stem}.csv.audit.json").exists()


def test_an_unaudited_plan_computes_no_sqp_multiplier(tmp_path, monkeypatch):
    # only the records read the SQP multiplier y, so a plan of every strategy without
    # --audit never asks for it and still writes the pinned bytes
    def refuse(*args, **kwargs):
        raise AssertionError("the SQP multiplier was computed for a run without records")

    monkeypatch.setattr(tssqp.solver, "sqp_multiplier", refuse)
    monkeypatch.delenv("TSSQP_TIMING", raising=False)
    out = tmp_path / "golden_plan.csv"
    assert main(GOLDEN_ARGV + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_plan.csv").read_bytes()


def test_golden_wide_records():
    assert wide_digests() == json.loads((DATA / "golden_wide.records.json").read_text())


def test_golden_wide_without_the_lapack_binding(tmp_path, monkeypatch):
    # where numpy's dgetrf/dgetrs cannot be found every solve stays np.linalg.solve
    monkeypatch.setattr(linalg, "_LAPACK", None)
    _assert_golden(WIDE_ARGV, "golden_wide", tmp_path, monkeypatch)
    test_golden_wide_records()


if __name__ == "__main__":
    (DATA / "golden_wide.json").write_text(json.dumps(wide_problem()) + "\n")
    (DATA / "golden_wide.records.json").write_text(json.dumps(wide_digests(), indent=1, sort_keys=True) + "\n")
