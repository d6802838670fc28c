"""Output bytes pinned across commits.

`tests/data/golden_plan.csv` and its `.audit.json` sidecar hold the output of
`GOLDEN_ARGV`.  A refactor that changes no arithmetic must reproduce them byte
for byte; a change that is meant to alter numerics regenerates them with

    PYTHONPATH=src python -m tssqp.cli run <GOLDEN_ARGV args> --out tests/data/golden_plan.csv --audit

and says so.
"""

from pathlib import Path

from tssqp.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN_ARGV = [
    "run", "--problem", "qplin5", "--problem", "sphere3",
    "--strategy", "fixed", "--strategy", "adaptive",
    "--strategy", "linesearch", "--strategy", "ablation",
    "--noise", "0", "--noise", "0.1", "--seeds", "3", "--iters", "200",
]


def test_golden_plan_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("TSSQP_TIMING", raising=False)
    out = tmp_path / "golden_plan.csv"
    assert main(GOLDEN_ARGV + ["--out", str(out), "--audit"]) == 0
    assert out.read_bytes() == (DATA / "golden_plan.csv").read_bytes()
    audit = tmp_path / "golden_plan.csv.audit.json"
    assert audit.read_bytes() == (DATA / "golden_plan.csv.audit.json").read_bytes()
