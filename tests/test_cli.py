import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

import tssqp.cli
from tssqp.cli import main
from tssqp.harness import CSV_COLUMNS


def _args(*extra, out=None):
    args = ["run", "--problem", "qp2", "--strategy", "linesearch",
            "--noise", "0", "--seeds", "2", "--iters", "50"]
    if out is not None:
        args += ["--out", str(out)]
    args += list(extra)
    return args


class TestRunCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(_args(out=out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("qp2,linesearch,0.0,0,converged,")

    def test_stdout_default(self, capsys):
        assert main(_args()) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(CSV_COLUMNS))

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        assert main(_args("--format", "json", out=out)) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2 and payload[0]["problem"] == "qp2"

    def test_suite_flag(self, tmp_path):
        out = tmp_path / "suite.csv"
        rc = main(["run", "--suite", "--strategy", "fixed", "--noise", "0",
                   "--seeds", "1", "--iters", "5", "--out", str(out)])
        assert rc == 0
        from tssqp import builtin_names

        assert len(out.read_text().splitlines()) == 1 + len(builtin_names())

    def test_repeatable_flags(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(_args("--strategy", "ablation", "--noise", "1e-3",
                        "--problem", "qp2", "--noise", "0", "--strategy", "ablation", out=out))
        assert rc == 0
        # 1 problem x 2 strategies x 2 noise levels x 2 trials; repeats count once
        keys = [tuple(line.split(",")[:4]) for line in out.read_text().splitlines()[1:]]
        assert len(keys) == 8 == len(set(keys))

    def test_stepsize_underflow_is_a_row(self, tmp_path):
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({
            "name": "steep", "n": 2, "m": 1, "kind": "quadratic_linear",
            "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [1e160, 0.0],
            "A": [[1.0, 1.0]], "b": [1.0],
        }))
        out = tmp_path / "rows.csv"
        rc = main(["run", "--problem", str(path), "--strategy", "adaptive",
                   "--strategy", "linesearch", "--noise", "0", "--seeds", "1",
                   "--iters", "10", "--out", str(out)])
        # u'u overflows, so adaptive's beta underflows; the linesearch run still gets its row
        assert rc == 3
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[1], r[4]) for r in rows] == [
            ("adaptive", "failed:stepsize_underflow"), ("linesearch", "failed:evaluation_failure")]

    def test_audit_emission(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(_args("--audit", out=out)) == 0
        payload = json.loads((tmp_path / "rows.csv.audit.json").read_text())
        assert len(payload) == 2
        assert all(entry["report"]["passed"] for entry in payload)

    def test_diverged_audit_is_strict_json(self, tmp_path):
        # alpha = nu = 3 overshoots the linear constraint: c flips sign and
        # doubles every iteration until the oracle overflows, and two checks
        # end with a NaN margin
        path = tmp_path / "div.json"
        path.write_text(json.dumps({
            "name": "div", "n": 3, "m": 1, "kind": "quadratic_linear",
            "Q": (1e-3 * np.eye(3)).tolist(), "g0": [0.0, 0.0, 0.0],
            "A": [[1.0, 0.0, 0.0]], "b": [1.0],
        }))
        out = tmp_path / "rows.csv"
        rc = main(["run", "--problem", str(path), "--strategy", "fixed", "--nu", "3",
                   "--noise", "0", "--seeds", "1", "--audit", "--out", str(out)])
        assert rc == 3
        assert out.read_text().splitlines()[1].split(",")[4] == "failed:evaluation_failure"

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads((tmp_path / "rows.csv.audit.json").read_text(), parse_constant=reject)
        margins = [c["worst_margin"] for c in payload[0]["report"]["checks"]]
        assert margins.count("nan") == 2
        assert all(isinstance(m, (int, float)) for m in margins if m != "nan")


class TestExitCodes:
    def test_unknown_problem_is_config_error(self, capsys):
        rc = main(["run", "--problem", "nosuch", "--strategy", "linesearch"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_no_problem_selected(self):
        assert main(["run", "--strategy", "linesearch"]) == 2

    def test_audit_requires_out_file(self):
        assert main(_args("--audit")) == 2

    def test_bad_flag_value_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "qp2", "--strategy", "sgd"])
        assert exc.value.code == 2

    def test_all_runs_failed(self, tmp_path, capsys):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "name": "singular", "n": 2, "m": 2, "kind": "quadratic_linear",
            "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, 0.0],
            "A": [[1.0, 1.0], [2.0, 2.0]], "b": [1.0, 2.0],
        }))
        rc = main(["run", "--problem", str(path), "--strategy", "linesearch",
                   "--noise", "0", "--seeds", "2", "--iters", "10",
                   "--out", str(tmp_path / "rows.csv")])
        assert rc == 3
        assert "all runs failed" in capsys.readouterr().err

    def test_negative_base_seed_exits_2(self, capsys):
        assert main(_args("--base-seed", "-1")) == 2
        assert "base_seed" in capsys.readouterr().err

    def test_two_files_of_one_problem_name_exit_2(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            path = tmp_path / f"p{i}.json"
            path.write_text(json.dumps({
                "name": "same", "n": 2, "m": 1, "kind": "quadratic_linear",
                "Q": [[1.0, 0.0], [0.0, 1.0]], "g0": [0.0, float(i)], "A": [[1.0, 1.0]], "b": [1.0],
            }))
            paths += ["--problem", str(path)]
        assert main(["run", *paths, "--strategy", "linesearch", "--iters", "5"]) == 2
        assert "'same'" in capsys.readouterr().err

    def test_missing_out_directory_exits_2_before_the_plan_runs(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the plan ran")

        monkeypatch.setattr(tssqp.cli, "run_experiment", refuse)
        out = tmp_path / "nosuch" / "rows.csv"
        assert main(_args("--audit", out=out)) == 2
        assert "tssqp: error: cannot write" in capsys.readouterr().err
        assert not (tmp_path / "nosuch").exists()

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        assert main(_args(out=tmp_path)) == 2
        assert "is a directory" in capsys.readouterr().err
        (tmp_path / "rows.csv").write_text("kept")
        (tmp_path / "rows.csv.audit.json").mkdir()
        assert main(_args("--audit", out=tmp_path / "rows.csv")) == 2
        assert (tmp_path / "rows.csv").read_text() == "kept"  # nothing truncated

    def test_write_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tssqp.cli, "open", full, raising=False)  # the name the CLI's writes resolve
        assert main(_args(out=tmp_path / "rows.csv")) == 2
        assert "tssqp: error: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_malformed_problem_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--problem", str(path), "--strategy", "linesearch"]) == 2


class TestUsage:
    def test_every_run_option_is_documented(self):
        # the module docstring's and README's usage blocks name every long option of `run`
        parser = tssqp.cli._build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {s for a in subparsers.choices["run"]._actions for s in a.option_strings if s.startswith("--")}
        options.discard("--help")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cli_block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
        for text in (tssqp.cli.__doc__, cli_block):
            assert sorted(o for o in options if not re.search(re.escape(o) + r"\b", text)) == []
