"""Output of the non-default `alpha_rule` paths pinned across commits.

The CLI cannot set `alpha_rule`, so the golden plan never takes the fixed
"upper"/"backtrack" or the adaptive "upper" paths.  `tests/data/alpha_rules.json`
holds, for each run of `CASES`, the repr of its status, iteration count and
errors plus a SHA-256 of every record and the final iterate.  A change that is
meant to alter numerics regenerates the file with

    PYTHONPATH=src python tests/test_alpha_rules.py

and says so.
"""

import hashlib
import json
from pathlib import Path

from tssqp import SolverConfig, load_problem, run

DATA = Path(__file__).parent / "data" / "alpha_rules.json"

CASES = [
    (problem, strategy, rule, noise, seed)
    for problem in ("qplin5", "sphere3")
    for strategy, rule in (("fixed", "upper"), ("fixed", "backtrack"), ("adaptive", "upper"))
    for noise in (0.0, 0.1)
    for seed in (0, 1)
]


def _digest(trace) -> str:
    h = hashlib.sha256()
    for rec in trace.records:
        for arr in (rec.x, rec.u, rec.v, rec.d):
            h.update(arr.tobytes())
        h.update(repr((rec.k, rec.alpha, rec.beta, rec.alpha_lo, rec.alpha_hi,
                       rec.n_backtracks, rec.hit_safeguard, rec.c_l1, rec.c_l2,
                       rec.c_inf, rec.stat_inf, rec.sigma_min)).encode())
    h.update(trace.x_final.tobytes())
    return h.hexdigest()


def outcomes() -> dict:
    out = {}
    for problem, strategy, rule, noise, seed in CASES:
        config = SolverConfig(strategy=strategy, alpha_rule=rule, max_iters=200,
                              noise=noise)
        trace = run(load_problem(problem), config, seed=seed)
        out[f"{problem}|{strategy}|{rule}|{noise!r}|{seed}"] = [
            repr(trace.status), trace.iterations, repr(trace.feas_error),
            repr(trace.stat_error), _digest(trace),
        ]
    return out


def test_alpha_rule_outcomes_pinned():
    assert outcomes() == json.loads(DATA.read_text())


if __name__ == "__main__":
    DATA.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")
