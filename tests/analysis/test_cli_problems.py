"""CLI problem axis: --problem on run/check/batch/trace, and the
MST-vs-MIS campaign."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec
from repro.cli import build_parser, main

PROBLEMS_SPEC = (
    Path(__file__).resolve().parents[2] / "examples" / "campaigns"
    / "problems.toml"
)


class TestParser:
    def test_run_problem_defaults_to_mst(self):
        args = build_parser().parse_args(["run"])
        assert args.problem == "mst"

    def test_run_rejects_unknown_problem(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--problem", "coloring"])

    def test_batch_grid_gains_problem_axis(self):
        args = build_parser().parse_args(["batch", "--problem", "mis"])
        assert args.problem == "mis"

    def test_compare_defaults_to_acceptance_grid(self):
        spec = CampaignSpec.load(PROBLEMS_SPEC)
        for grid in spec.grids:
            assert grid.payload["sizes"] == [64, 256, 1024]
            assert grid.payload["seeds"] == 3

    def test_bench_accepts_mis_suite(self):
        args = build_parser().parse_args(["bench", "--suite", "mis"])
        assert args.suite == "mis"


class TestRun:
    def test_run_problem_mis(self, capsys):
        code = main(
            ["run", "--problem", "mis", "--n", "16", "--monitors", "all"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Sleeping-MIS" in out
        assert "maximal independent set: True" in out
        assert "0 violation(s)" in out

    def test_algorithm_mis_implies_problem(self, capsys):
        code = main(["run", "--algorithm", "mis", "--n", "16", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "Sleeping-MIS"
        assert payload["problem"] == "mis"
        assert payload["correct"] is True

    def test_mis_array_engine_fails_fast(self, capsys):
        code = main(
            ["run", "--problem", "mis", "--n", "16", "--engine", "array"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Sleeping-MIS" in err
        assert "only Randomized-MST is vectorized" in err

    def test_mst_output_unchanged(self, capsys):
        code = main(["run", "--graph", "ring", "--n", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "correct MST      : True" in out


class TestCheck:
    def test_check_problem_mis_attaches_mis_monitors(self, capsys):
        code = main(["check", "--problem", "mis", "--n", "16", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "Sleeping-MIS"
        assert payload["problem"] == "mis"
        assert "mis-independence" in payload["monitors"]
        assert payload["outcome"] == "correct"
        assert payload["violations"] == 0

    def test_check_sweep_mis(self, capsys, tmp_path):
        code = main(
            [
                "batch", "--problem", "mis", "--algorithms", "mis",
                "--sizes", "8", "--seeds", "2", "--monitors", "all",
                "--no-cache", "--quiet", "--store",
                str(tmp_path / "mis.jsonl"), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        metrics = [record["metrics"] for record in payload["records"]]
        assert [m["algorithm"] for m in metrics] == ["Sleeping-MIS"] * 2
        assert all(m["monitor_checks"] > 0 for m in metrics)
        assert sum(m["violations"] for m in metrics) == 0


class TestBatch:
    def test_batch_problem_mis(self, capsys, tmp_path):
        store = tmp_path / "mis.jsonl"
        code = main(
            [
                "batch", "--problem", "mis", "--sizes", "8", "--seeds", "2",
                "--monitors", "all", "--no-cache", "--quiet",
                "--store", str(store), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["summary"]["failed"] == 0
        records = payload["records"]
        assert len(records) == 2
        for record in records:
            assert record["spec"]["problem"] == "mis"
            assert record["spec"]["algorithm"] == "Sleeping-MIS"
            assert record["metrics"]["correct"] is True
            assert record["metrics"]["violations"] == 0


class TestTrace:
    def test_trace_problem_mis(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--problem", "mis", "--n", "16",
                "--output", str(out_path), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "Sleeping-MIS"
        assert payload["identity_ok"] is True
        assert out_path.exists()


class TestCompare:
    def test_compare_small_grid(self, capsys, tmp_path, shrunk_campaign):
        spec_path = tmp_path / "problems.json"
        spec_path.write_text(
            json.dumps(shrunk_campaign("problems", [8, 16], 1))
        )
        out_path = tmp_path / "compare.json"
        code = main(
            [
                "campaign", "run", str(spec_path),
                "--root", str(tmp_path / "campaigns"), "--no-cache",
                "--quiet", "--output", str(out_path), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)  # tiny grids may not separate the curves
        assert set(payload["grids"]) == {"mst-curve", "mis-curve"}
        assert out_path.exists()
