"""`benchmarks/kernel_bench.py` must keep running against the current `linalg` and `solver`.

The script is loaded from its file, as `python benchmarks/kernel_bench.py`
runs it, and timed with one repetition per kernel.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "kernel_bench.py"


def test_kernel_bench_runs(capsys):
    spec = importlib.util.spec_from_file_location("kernel_bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.bench_kernels(reps=1)
    lines = capsys.readouterr().out.splitlines()
    timed = [line.split() for line in lines[1:]]
    assert len(timed) == 4 * len(bench.SIZES) + len(bench.NOISE_SIZES)
    assert {kernel for _, kernel, _ in timed} == {"step_factor", "step_solve", "lsq_factor", "lsq_solve",
                                                  "noise_draw"}
    assert all(t.endswith("us") for _, _, t in timed)
