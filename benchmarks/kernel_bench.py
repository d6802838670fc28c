#!/usr/bin/env python3
"""Time the dense step kernels in isolation.

Usage: python benchmarks/kernel_bench.py [--reps 2000]

Prints per-call times at a few problem sizes, with the part that depends on
(H, J) alone timed apart from the per-iteration solve:

  step_factor  ``linalg.factor_step``: full SVD, rank test, Z, Z' H Z, Cholesky,
               then ``linalg.factor_reduced_lu``: at n - m >= 32 an LU of
               Z' H Z (``dgetrf``) and its bit probe
  step_solve   ``linalg.solve_step`` given those factors: v, w, u, p, y
  lsq_factor   ``linalg.factor_multiplier``: reduced SVD and rank test
  lsq_solve    ``linalg.least_squares_multiplier`` given those factors
  noise_draw   ``solver._noisy_gradients``: one iteration's g = grad + sqrt(eps) z
               for B noisy lanes of dimension n, amortized over whole noise
               blocks (one ``problems.standard_normal_vector`` call per
               ``solver.NOISE_BLOCK_ITERS`` iterations)

A run whose J stays bitwise the same pays the factor lines once and the solve
lines every iteration.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tssqp import NoiseModel, Problem, SolverConfig, linalg, solver  # noqa: E402

SIZES = [(5, 2), (20, 8), (50, 20), (200, 40)]
NOISE_SIZES = [(1, 4), (1, 200), (40, 4), (40, 200)]  # (lanes B, dimension n)


def make_instance(rng, n, m):
    J = rng.normal(size=(m, n))
    B = rng.normal(size=(n, n // 2 + 1))
    H = np.eye(n) + B @ B.T / n
    return H, J, rng.normal(size=n), rng.normal(size=m)


def reused_step_factors(H, J):
    """The step factors a run reuses: ``factor_step``'s, with the reduced Hessian's LU."""
    return linalg.factor_reduced_lu(linalg.factor_step(H, J)[0])


def time_kernel(fn, args_list, reps):
    fn(*args_list[0])  # warm-up
    t0 = time.perf_counter()
    for i in range(reps):
        fn(*args_list[i % len(args_list)])
    return (time.perf_counter() - t0) / reps


def bench_kernels(reps):
    rng = np.random.default_rng(0)
    print(f"{'size':>10} {'kernel':>12} {'time':>12}")
    for n, m in SIZES:
        insts = [make_instance(rng, n, m) for _ in range(16)]
        step_factors = [reused_step_factors(H, J) for H, J, _, _ in insts]
        lsq_factors = [linalg.factor_multiplier(J)[0] for _, J, _, _ in insts]
        cases = [
            ("step_factor", reused_step_factors, [(H, J) for H, J, _, _ in insts]),
            ("step_solve", linalg.solve_step,
             [(H, J, g, c, f) for (H, J, g, c), f in zip(insts, step_factors)]),
            ("lsq_factor", linalg.factor_multiplier, [(J,) for _, J, _, _ in insts]),
            ("lsq_solve", linalg.least_squares_multiplier,
             [(J, g, f) for (_, J, g, _), f in zip(insts, lsq_factors)]),
        ]
        for label, fn, args_list in cases:
            t = time_kernel(fn, args_list, reps)
            print(f"{f'{n}x{m}':>10} {label:>12} {t * 1e6:>10.1f}us")
    for lanes, n in NOISE_SIZES:
        print(f"{f'B{lanes}/n{n}':>10} {'noise_draw':>12} {time_noise_draw(lanes, n, reps) * 1e6:>10.1f}us")


def time_noise_draw(lanes, n, reps):
    """Per-iteration time of the lanes' gradient draw, over whole blocks of at least `reps` draws."""
    problem = Problem(name=f"noise{n}", n=n, m=1, eval_fn=None, c_fn=None, x0=np.zeros(n))
    config = SolverConfig(noise=NoiseModel(0.1, seed=0))
    state = solver._init_lanes(problem, [config] * lanes, list(range(lanes)))
    grad = np.ones((lanes, n))
    draws = -(-reps // solver.NOISE_BLOCK_ITERS) * solver.NOISE_BLOCK_ITERS
    t0 = time.perf_counter()
    for _ in range(draws):
        solver._noisy_gradients(grad, state, config.max_iters)
    return (time.perf_counter() - t0) / draws


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=2000)
    args = parser.parse_args()
    bench_kernels(args.reps)
