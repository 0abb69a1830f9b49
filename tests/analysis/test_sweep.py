"""Grid sweeps through ``batch``, the CLI's one grid runner."""

from __future__ import annotations

import json

from repro.analysis import fit_records
from repro.cli import main as cli_main

#: The per-run columns the old sweep CSV export had; every ``batch``
#: record carries them.
SWEEP_COLUMNS = (
    "algorithm", "family", "n", "m", "max_id", "seed", "phases",
    "max_awake", "mean_awake", "rounds", "awake_round_product",
    "messages", "bits", "correct",
)


def batch(tmp_path, capsys, *args):
    """Run ``batch --json`` on a private store; returns (code, metrics)."""
    code = cli_main(
        [
            "batch", *args, "--no-cache", "--quiet", "--json",
            "--store", str(tmp_path / "runs.jsonl"),
        ]
    )
    captured = capsys.readouterr()
    if code == 2:
        return code, captured.err
    records = json.loads(captured.out)["records"]
    return code, [record["metrics"] for record in records]


class TestRunSweep:
    def test_grid_shape(self, tmp_path, capsys):
        code, points = batch(
            tmp_path, capsys, "--families", "ring", "path",
            "--sizes", "8", "16", "--seeds", "2",
        )
        assert code == 0
        assert len(points) == 2 * 2 * 2
        assert {point["family"] for point in points} == {"ring", "path"}

    def test_all_correct(self, tmp_path, capsys):
        code, points = batch(tmp_path, capsys, "--sizes", "12", "--seeds", "3")
        assert code == 0
        assert all(point["correct"] for point in points)

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        code, err = batch(tmp_path, capsys, "--algorithms", "Quantum-MST")
        assert code == 2
        assert "unknown algorithm" in err

    def test_unknown_family_rejected(self, tmp_path, capsys):
        code, err = batch(tmp_path, capsys, "--families", "hypercube")
        assert code == 2
        assert "unknown family" in err

    def test_id_range_factor(self, tmp_path, capsys):
        code, points = batch(
            tmp_path, capsys, "--families", "ring", "--sizes", "8",
            "--seeds", "1", "--id-range-factor", "10",
        )
        assert code == 0
        assert points[0]["max_id"] == 80


class TestExports:
    def test_records_carry_the_sweep_columns(self, tmp_path, capsys):
        code, points = batch(
            tmp_path, capsys, "--families", "ring", "--sizes", "8",
            "--seeds", "2",
        )
        assert code == 0
        for point in points:
            assert set(SWEEP_COLUMNS) <= set(point)

    def test_fit_produces_constants(self, tmp_path, capsys):
        code, points = batch(
            tmp_path, capsys, "--families", "ring", "--sizes", "8", "32",
            "--seeds", "1",
        )
        assert code == 0
        fit = fit_records(points, model="log", resamples=10)
        assert fit.constant > 0
        assert [point.n for point in fit.points] == [8, 32]

