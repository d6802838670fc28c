#!/usr/bin/env python3
"""Time the dense step kernels in isolation.

Usage: python benchmarks/kernel_bench.py [--reps 2000]

Prints per-call times of ``linalg.solve_step`` (SVD, decomposition and reduced
solve) and ``linalg.least_squares_multiplier`` at a few problem sizes.
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
    print(f"{'size':>10} {'kernel':>8} {'time':>12}")
    for n, m in SIZES:
        insts = [make_instance(rng, n, m) for _ in range(16)]
        t = time_kernel(linalg.solve_step, insts, reps)
        print(f"{f'{n}x{m}':>10} {'step':>8} {t * 1e6:>10.1f}us")
        lst = [(J, g) for _, J, g, _ in insts]
        t = time_kernel(linalg.least_squares_multiplier, lst, reps)
        print(f"{f'{n}x{m}':>10} {'lstsq':>8} {t * 1e6:>10.1f}us")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=2000)
    args = parser.parse_args()
    bench_kernels(args.reps)
