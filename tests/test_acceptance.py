"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Timed criteria measure the
computation only.
"""

import hashlib
import time

import numpy as np
import pytest

from tssqp import (
    ExperimentPlan,
    SolverConfig,
    audit_trace,
    builtin_names,
    evaluate,
    load_problem,
    run,
    run_experiment,
    to_csv,
)
from tssqp.solver import CONVERGED
from tssqp.stepsize import backtrack_count_bound
from oracles import augmented_solve, kkt_step, random_instance

SECTION6 = dict(eta=0.1, nu=1.0, theta=1.0, xi=1e-3, rho=0.5, q0=1e-9, b0=1.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _instances(count=200, seed=1234):
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(count)]


def test_criterion_1_kkt_oracle_equivalence():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_resid = 0.0
    for H, J, g, c in _instances():
        sol_p, sol_y, _, _, _ = kkt_step(H, J, g, c)
        p_ref, y_ref = augmented_solve(H, J, g, c)
        rel_p = np.linalg.norm(sol_p - p_ref) / max(1.0, np.linalg.norm(p_ref))
        rel_y = np.linalg.norm(sol_y - y_ref) / max(1.0, np.linalg.norm(y_ref))
        worst_rel = max(worst_rel, rel_p, rel_y)
        r1 = np.abs(H @ sol_p + J.T @ sol_y + g).max() / max(1.0, np.abs(g).max())
        r2 = np.abs(J @ sol_p + c).max() / max(1.0, np.abs(c).max())
        worst_resid = max(worst_resid, r1, r2)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_resid <= 1e-8 and elapsed < 10.0
    _report(1, "KKT oracle equivalence (200 instances)", ok,
            f"worst_rel={worst_rel:.2e} worst_resid={worst_resid:.2e} time={elapsed:.2f}s")


def test_criterion_2_decomposition_invariants():
    tol = 1e-8
    worst = 0.0
    for H, J, g, c in _instances():
        _, _, u, v, smin = kkt_step(H, J, g, c)
        worst = max(
            worst,
            np.abs(J @ u).max() / max(1.0, np.abs(u).max()),
            np.abs(J @ v + c).max() / max(1.0, np.abs(c).max()),
            abs(u @ v) / max(1e-300, np.linalg.norm(u) * np.linalg.norm(v)),
            (np.linalg.norm(v) - np.linalg.norm(c) / smin) / max(1.0, np.linalg.norm(v)),
        )
    # the same invariants must hold in audited solver traces
    audits_pass = True
    for name in ("sphere3", "rosenlin2"):
        pb = load_problem(name)
        trace = run(pb, SolverConfig(strategy="linesearch", max_iters=200,
                                     noise=1e-3, noise_seed=0, **SECTION6), seed=1)
        report = audit_trace(trace, pb)
        decomposition_checks = [c for c in report.checks
                                if c.name in ("tangential_in_null_space",
                                              "normal_solves_linearized",
                                              "u_v_orthogonal",
                                              "normal_component_bound")]
        audits_pass &= all(c.passed for c in decomposition_checks)
    ok = worst <= tol and audits_pass
    _report(2, "decomposition invariants + normal-component bound", ok,
            f"worst_scaled_violation={worst:.2e} audits={'ok' if audits_pass else 'FAIL'}")


def test_criterion_3_deterministic_convergence():
    t0 = time.perf_counter()
    results = {}
    for name in builtin_names():
        pb = load_problem(name)
        config = SolverConfig(strategy="linesearch", max_iters=1000, feas_tol=1e-6, stat_tol=1e-4,
                              **SECTION6)
        trace = run(pb, config, seed=0)
        results[name] = (trace.status, trace.iterations)
    elapsed = time.perf_counter() - t0
    ok = all(status == CONVERGED for status, _ in results.values()) and elapsed < 5.0
    detail = " ".join(f"{n}={s}@{k}" for n, (s, k) in results.items())
    _report(3, "deterministic linesearch convergence on the suite", ok,
            f"{detail} time={elapsed:.2f}s")


def test_criterion_4_tangential_unbiasedness():
    pb = load_problem("sphere3")
    x = np.array([2.0, 0.0, 0.0])
    ev = evaluate(pb, x[None])[0]
    grad, c, jac = ev.grad[0], ev.c[0], ev.jac[0]
    H = np.eye(3)
    _, _, u_true, _, _ = kkt_step(H, jac, grad, c)
    config = SolverConfig(noise=1e-1, noise_seed=2025)
    stream = config.stream(0)
    n_samples = 10_000
    samples = np.empty((n_samples, 3))
    from tssqp.problems import standard_normal_vector

    for i in range(n_samples):
        g = grad + np.sqrt(config.noise) * standard_normal_vector([stream], 3, 1)[0, 0]
        _, _, u, _, _ = kkt_step(H, jac, g, c)
        samples[i] = u
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    gap = np.abs(samples.mean(axis=0) - u_true)
    mc_ok = bool(np.all(gap <= 3.0 * se + 1e-14))
    # the coordinate along Range(J') has zero spread by construction
    ratio = float((gap[se > 0] / (3.0 * se[se > 0])).max())
    rng = np.random.default_rng(7)
    g1, g2 = grad + rng.normal(size=3), grad + rng.normal(size=3)
    _, _, u1, _, _ = kkt_step(H, jac, g1, c)
    _, _, u2, _, _ = kkt_step(H, jac, g2, c)
    _, _, um, _, _ = kkt_step(H, jac, (g1 + g2) / 2.0, c)
    affine_gap = float(np.abs(u1 + u2 - 2.0 * um).max())
    ok = mc_ok and affine_gap <= 1e-10
    _report(4, "tangential step unbiased and affine in g", ok,
            f"max|mean-u_true|/3se={ratio:.2f} affine_gap={affine_gap:.1e}")


def test_criterion_5_feasibility_rate():
    t0 = time.perf_counter()
    pb = load_problem("sphere3")
    horizons = [50, 100, 200, 400, 800]
    means = []
    for K in horizons:
        vals = []
        for trial in range(20):
            config = SolverConfig(strategy="fixed", alpha_rule="lower",
                                  max_iters=K, eta=0.1, nu=0.1, theta=1.0,
                                  noise=1e-3, noise_seed=99)
            trace = run(pb, config, seed=trial)
            assert trace.iterations == K, "rate runs must use the whole horizon"
            vals.append(np.mean([rec.c_l1 for rec in trace.records]))
        means.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope <= -0.7 and elapsed < 120.0
    _report(5, "fixed-regime feasibility rate ~ 1/K", ok,
            f"slope={slope:.3f} means={[f'{m:.3g}' for m in means]} time={elapsed:.1f}s")


@pytest.fixture(scope="module")
def figure1_rows():
    plan = ExperimentPlan(
        problems=tuple(builtin_names()),
        strategies=("linesearch", "ablation"),
        noise_levels=(1e-5, 1e-1),
        trials=20, base_seed=2024, config=SolverConfig(max_iters=1000),
    )
    t0 = time.perf_counter()
    rows = run_experiment(plan)
    return rows, time.perf_counter() - t0


def test_criterion_6_figure1_trend(figure1_rows):
    rows, elapsed = figure1_rows

    def median_feas(strategy, noise):
        vals = [r.feas_error for r in rows if r.strategy == strategy and r.noise == noise]
        assert len(vals) == 20 * len(builtin_names())
        return float(np.median(vals))

    ls_hi, ls_lo = median_feas("linesearch", 1e-1), median_feas("linesearch", 1e-5)
    ab_hi, ab_lo = median_feas("ablation", 1e-1), median_feas("ablation", 1e-5)
    part1 = ls_hi <= ab_hi
    part2 = (ls_hi / ls_lo) <= (ab_hi / ab_lo)
    ok = part1 and part2 and elapsed < 300.0
    _report(6, "two-stepsize beats ablation on feasibility under noise", ok,
            f"median@1e-1 ls={ls_hi:.2e} abl={ab_hi:.2e}; "
            f"ratio ls={ls_hi / ls_lo:.1f} abl={ab_hi / ab_lo:.1f}; time={elapsed:.0f}s")


def test_criterion_6_csv_bytes(figure1_rows):
    # the plan's CSV bytes are pinned across commits, as the golden files are
    rows, _ = figure1_rows
    digest = hashlib.sha256(to_csv(rows).encode()).hexdigest()[:16]
    iters = sum(r.iters for r in rows)
    ok = digest == "b27aebfac1c3807a" and iters == 382999
    _report(6, "criterion-6 CSV bytes", ok, f"sha256={digest} iterations={iters}")


def test_criterion_7_line_search_contracts():
    violations = 0
    audited = 0
    for name in builtin_names():
        pb = load_problem(name)
        for strategy in ("linesearch", "ablation"):
            for eps, seed in ((0.0, 0), (1e-1, 1), (1e-3, 2)):
                config = SolverConfig(strategy=strategy, max_iters=400,
                                      noise=eps, noise_seed=seed, **SECTION6)
                trace = run(pb, config, seed=seed)
                report = audit_trace(trace, pb)
                wanted = {"decrease_certificate", "backtrack_count_bound",
                          "alpha_in_range", "safeguard_semantics"}
                for check in report.checks:
                    if check.name in wanted:
                        violations += check.violations
                audited += 1
                for rec in trace.records:
                    assert rec.n_backtracks <= backtrack_count_bound(
                        rec.alpha_lo, rec.alpha_hi, config.rho
                    )
    ok = violations == 0
    _report(7, "line-search certificates, count bounds, range containment", ok,
            f"{audited} traces audited, {violations} violations")


def test_criterion_8_reproducibility():
    plan = ExperimentPlan(
        problems=("qp2", "sphere3"),
        strategies=("linesearch", "ablation"),
        noise_levels=(1e-3, 1e-1),
        trials=3, base_seed=31, config=SolverConfig(max_iters=200),
    )
    first = to_csv(run_experiment(plan))
    second = to_csv(run_experiment(plan))
    ok = first == second
    _report(8, "byte-identical CSV across repeats", ok,
            f"{len(first)} bytes")
