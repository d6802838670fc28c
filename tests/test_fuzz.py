"""Seeded fuzz test: random quadratic_linear files x random valid configs x every strategy.

Every run must end with a known status and be audited without a warning,
every run that did not fail must pass its audit, and each (file, config)
cell run as lanes must give the bits of its runs alone.  Some Jacobians are exactly rank deficient (a row that is
a multiple of another, or zero); the nearly deficient ones reach a condition
number of ~3e8, which the audit's backward-error tolerance on J v = -c
still passes.
"""

import dataclasses
import json

import numpy as np
import pytest

from tssqp import NoiseModel, SolverConfig, audit_trace, load_problem, run, run_lanes
from test_alpha_rules import _digest

STRATEGIES = ("fixed", "adaptive", "linesearch", "ablation")
FAIL_TOKENS = {"rank_deficient_jacobian", "indefinite_reduced_hessian", "evaluation_failure",
               "stepsize_underflow", "stepsize_overflow"}


def _random_file(rng, path, kind: int) -> str:
    n = int(rng.integers(2, 31))
    m = int(rng.integers(1, min(n, 8) + 1))
    A = rng.normal(size=(m, n))
    if kind == 1:  # exactly rank deficient
        A[-1] = 2.0 * A[0] if m > 1 else 0.0
    elif kind == 2 and m > 1:  # nearly rank deficient
        A[-1] = A[0] + 1e-8 * rng.normal(size=n)
    B = rng.normal(size=(n, n))
    Q = B @ B.T / n + 0.1 * np.eye(n)
    spec = {"name": path.stem, "n": n, "m": m, "kind": "quadratic_linear",
            "Q": ((Q + Q.T) / 2).tolist(), "g0": rng.normal(size=n).tolist(),
            "A": A.tolist(), "b": rng.normal(size=m).tolist()}
    path.write_text(json.dumps(spec))
    return str(path)


def _random_config(rng, strategy: str, noise: NoiseModel) -> SolverConfig:
    rules = ("lower", "upper") if strategy == "adaptive" else ("lower", "upper", "backtrack")
    return SolverConfig(
        strategy=strategy, max_iters=int(rng.integers(0, 120)),
        feas_tol=10.0 ** rng.uniform(-8, -3), stat_tol=10.0 ** rng.uniform(-6, -2),
        eta=10.0 ** rng.uniform(-3, 0.5), nu=10.0 ** rng.uniform(-2, 0.3), theta=rng.uniform(0.0, 2.0),
        xi=rng.uniform(1e-4, 0.5), rho=rng.uniform(0.1, 0.9), q0=10.0 ** rng.uniform(-9, 0),
        b0=10.0 ** rng.uniform(-2, 1), alpha_rule=rules[int(rng.integers(len(rules)))], noise=noise,
    )


@pytest.mark.parametrize("block", range(5))
def test_random_files_and_configs(tmp_path, block):
    rng = np.random.default_rng(2024 + block)
    for case in range(5):
        problem = load_problem(_random_file(rng, tmp_path / f"fuzz{block}_{case}.json", case % 3))
        for strategy in STRATEGIES:
            noise_seed = int(rng.integers(1000))
            config = _random_config(rng, strategy, NoiseModel(0.0, seed=noise_seed))
            noisy = NoiseModel(10.0 ** rng.uniform(-4, 0), seed=noise_seed)
            configs = [config, dataclasses.replace(config, noise=noisy)]
            seeds = [int(s) for s in rng.integers(2**63, size=2)]
            for lane, lane_config, seed in zip(run_lanes(problem, configs, seeds), configs, seeds):
                alone = run(problem, lane_config, seed=seed)
                assert (lane.status, lane.fail_reason, lane.iterations) == (
                    alone.status, alone.fail_reason, alone.iterations)
                assert (repr(lane.feas_error), repr(lane.stat_error)) == (
                    repr(alone.feas_error), repr(alone.stat_error))
                assert _digest(lane) == _digest(alone)
                # a failed run's audit must still come back, and without a warning
                report = audit_trace(alone, problem)
                if alone.status == "failed":
                    assert alone.fail_reason in FAIL_TOKENS
                else:
                    assert report.passed, (problem.name, lane_config, report.to_json())
