#!/usr/bin/env python3
"""Time the dense step kernels in isolation.

Usage: python benchmarks/kernel_bench.py [--reps 2000]

Prints per-call times at a few problem sizes, with the part that depends on
(H, J) alone timed apart from the per-iteration solve:

  step_factor  ``linalg.factor_step``: full SVD, rank test, Z, Z' H Z, Cholesky
  step_solve   ``linalg.solve_step`` given those factors: v, w, u, p, y
  lsq_factor   ``linalg.factor_multiplier``: reduced SVD and rank test
  lsq_solve    ``linalg.least_squares_multiplier`` given those factors

A run whose J stays bitwise the same pays the factor lines once and the solve
lines every iteration.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tssqp import linalg  # noqa: E402

SIZES = [(5, 2), (20, 8), (50, 20)]


def make_instance(rng, n, m):
    J = rng.normal(size=(m, n))
    B = rng.normal(size=(n, n // 2 + 1))
    H = np.eye(n) + B @ B.T / n
    return H, J, rng.normal(size=n), rng.normal(size=m)


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
        step_factors = [linalg.factor_step(H, J)[0] for H, J, _, _ in insts]
        lsq_factors = [linalg.factor_multiplier(J)[0] for _, J, _, _ in insts]
        cases = [
            ("step_factor", linalg.factor_step, [(H, J) for H, J, _, _ in insts]),
            ("step_solve", linalg.solve_step,
             [(H, J, g, c, f) for (H, J, g, c), f in zip(insts, step_factors)]),
            ("lsq_factor", linalg.factor_multiplier, [(J,) for _, J, _, _ in insts]),
            ("lsq_solve", linalg.least_squares_multiplier,
             [(J, g, f) for (_, J, g, _), f in zip(insts, lsq_factors)]),
        ]
        for label, fn, args_list in cases:
            t = time_kernel(fn, args_list, reps)
            print(f"{f'{n}x{m}':>10} {label:>12} {t * 1e6:>10.1f}us")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=2000)
    args = parser.parse_args()
    bench_kernels(args.reps)
