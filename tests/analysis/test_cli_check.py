"""CLI ``check`` subcommand and ``run --monitors`` plumbing."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.algorithm == "randomized"
        assert args.monitors == "all"
        assert args.faults is None

    def test_check_sweep_flags(self, capsys):
        # A monitored grid is a batch: check keeps to one cell.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--sweep"])
        assert "unrecognized arguments: --sweep" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["batch", "--monitors", "all", "--sizes", "8", "16",
             "--seeds", "2", "--algorithms", "deterministic"]
        )
        assert args.monitors == "all"
        assert args.sizes == [8, 16]
        assert args.seeds == 2
        assert args.algorithms == ["deterministic"]

    def test_run_accepts_monitors(self):
        args = build_parser().parse_args(
            ["run", "--monitors", "star-merge"]
        )
        assert args.monitors == "star-merge"


class TestCheckSingle:
    def test_perfect_channel_cell_passes(self, capsys):
        rc = main(["check", "--algorithm", "randomized", "--graph", "gnp",
                   "--n", "12", "--seed", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "correct"
        assert payload["violations"] == 0
        assert payload["first_invariant"] is None
        assert payload["checks_run"] > 0
        assert payload["faults"] is None
        assert payload["monitors"]
        assert payload["report"]["violations"] == []

    def test_fault_cell_names_first_invariant(self, capsys):
        rc = main(["check", "--algorithm", "randomized", "--graph", "gnp",
                   "--n", "24", "--seed", "3", "--faults", "drop:0.02",
                   "--json"])
        # Faulted cells report; they do not fail the command.
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "detected_wrong"
        assert payload["first_invariant"] == "star-merge"
        assert payload["violations"] >= 1
        assert payload["crashed_nodes"] == [4]

    def test_monitors_off_is_an_error(self, capsys):
        rc = main(["check", "--monitors", "off"])
        assert rc == 2
        assert "at least one monitor" in capsys.readouterr().err

    def test_unknown_monitor_is_an_error(self, capsys):
        rc = main(["check", "--monitors", "warp-core"])
        assert rc == 2
        assert "unknown monitor" in capsys.readouterr().err

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "cell.json"
        rc = main(["check", "--graph", "path", "--n", "8", "--output",
                   str(target)])
        assert rc == 0
        payload = json.loads(target.read_text())
        assert payload["outcome"] == "correct"
        capsys.readouterr()


class TestCheckSweep:
    def test_small_sweep_is_clean(self, tmp_path, capsys):
        rc = main(["batch", "--algorithms", "randomized", "deterministic",
                   "--sizes", "8", "--seeds", "1", "--monitors", "all",
                   "--no-cache", "--quiet", "--store",
                   str(tmp_path / "runs.jsonl"), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["failed"] == 0
        # gnp x one size x one seed x both algorithms.
        assert len(payload["records"]) == 2
        for record in payload["records"]:
            metrics = record["metrics"]
            assert metrics["correct"] is True
            assert metrics["violations"] == 0
            assert metrics["monitor_checks"] > 0


class TestRunWithMonitors:
    def test_run_json_carries_monitor_report(self, capsys):
        rc = main(["run", "--algorithm", "randomized", "--graph", "path",
                   "--n", "8", "--monitors", "all", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monitors"]["violations"] == []
        assert payload["monitors"]["checks_run"] > 0
        assert payload["monitors"]["first_invariant"] is None

    def test_run_bad_monitor_spec_rejected(self, capsys):
        rc = main(["run", "--monitors", "bogus"])
        assert rc == 2
        assert "unknown monitor" in capsys.readouterr().err
