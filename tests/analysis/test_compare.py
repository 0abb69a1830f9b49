"""MST vs MIS awake complexity as a campaign (examples/campaigns/problems.toml)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import MODELS
from repro.campaigns import (
    CampaignSpec,
    LocalGridExecutor,
    load_report,
    render_report,
    run_campaign,
    write_report,
)
from repro.problems import problem_names

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = REPO_ROOT / "CAMPAIGN_problems.json"
SPEC = REPO_ROOT / "examples" / "campaigns" / "problems.toml"


def run(payload, root):
    spec = CampaignSpec.from_payload(payload)
    return run_campaign(spec, LocalGridExecutor(store=root / "runs.jsonl"))


class TestGenerate:
    """The committed spec on a small monitored grid."""

    @pytest.fixture(scope="class")
    def payload(self, shrunk_campaign, tmp_path_factory):
        # The array engine takes no monitors: monitored MST cells run on
        # the coroutine engine.
        spec = shrunk_campaign(
            "problems", [8, 16], [0], monitors="all", engine=None
        )
        return run(spec, tmp_path_factory.mktemp("problems"))

    def test_covers_every_registered_problem(self, payload):
        problems = {
            record["spec"].get("problem", "mst")
            for grid in payload["grids"].values()
            for record in grid["records"]
        }
        assert problems == set(problem_names()) == {"mst", "mis"}

    def test_curves_carry_normalized_ratios(self, payload):
        assert {fit["model"] for fit in payload["fits"].values()} == {
            "log", "loglog"
        }
        for fit in payload["fits"].values():
            assert [point["n"] for point in fit["points"]] == [8, 16]
            model = MODELS[fit["model"]]
            ratios = [p["mean"] / model(p["n"]) for p in fit["points"]]
            assert max(ratios) / min(ratios) == pytest.approx(
                fit["ratio_spread"], rel=1e-3
            )

    def test_monitored_cells_record_zero_violations(self, payload):
        for grid in payload["grids"].values():
            assert grid["cells"] == grid["ok"] == 2
            assert grid["violations"] == 0
            for record in grid["records"]:
                assert record["metrics"]["correct"] is True
                assert record["metrics"]["monitor_checks"] > 0
        correct = [c for c in payload["checks"] if c["kind"] == "correct"]
        assert len(correct) == 2
        assert all(check["passed"] for check in correct)

    def test_render_names_both_bounds(self, payload):
        text = render_report(payload)
        assert "x log(n)" in text
        assert "x loglog(n)" in text
        assert "check slower" in text

    def test_roundtrip_and_schema_gate(self, payload, tmp_path):
        path = write_report(payload, tmp_path / "problems.json")
        assert load_report(path) == payload
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="unexpected campaign report schema"):
            load_report(bad)

    def test_problem_subset(self, shrunk_campaign, tmp_path):
        spec = shrunk_campaign("problems", [8], [0])
        spec["grids"] = [g for g in spec["grids"] if g["name"] == "mis-curve"]
        spec["fits"] = [f for f in spec["fits"] if f["grid"] == "mis-curve"]
        spec["checks"] = [
            c for c in spec["checks"] if c.get("grid") == "mis-curve"
            and c["kind"] == "correct"
        ]
        payload = run(spec, tmp_path)
        assert set(payload["grids"]) == {"mis-curve"}
        assert [check["kind"] for check in payload["checks"]] == ["correct"]


class TestCommittedArtifact:
    """The acceptance criteria, asserted against the committed JSON."""

    @pytest.fixture(scope="class")
    def artifact(self):
        assert ARTIFACT.exists(), "CAMPAIGN_problems.json must be committed"
        return load_report(ARTIFACT)

    @staticmethod
    def curve(artifact, grid):
        fit = next(
            fit for fit in artifact["fits"].values() if fit["grid"] == grid
        )
        return [point["mean"] for point in fit["points"]]

    def test_acceptance_grid(self, artifact):
        assert artifact["spec_hash"] == CampaignSpec.load(SPEC).spec_hash
        for grid in artifact["grids"].values():
            specs = [record["spec"] for record in grid["records"]]
            assert sorted({spec["n"] for spec in specs}) == [64, 256, 1024]
            assert len({spec["seed"] for spec in specs}) >= 3

    def test_curves_match_the_earlier_compare_artifact(self, artifact):
        assert self.curve(artifact, "mst-curve") == [171.667, 209.0, 301.333]
        assert self.curve(artifact, "mis-curve") == [10.667, 11.333, 17.667]

    def test_mis_grows_strictly_slower(self, artifact):
        (slower,) = [c for c in artifact["checks"] if c["kind"] == "slower"]
        assert (slower["grid"], slower["than"]) == ("mis-curve", "mst-curve")
        assert slower["passed"] is True
        assert slower["growth"] < slower["than_growth"]
        # And in absolute terms: by n=1024 the curves are separated by
        # an order of magnitude.
        assert (
            10 * self.curve(artifact, "mis-curve")[-1]
            < self.curve(artifact, "mst-curve")[-1]
        )

    def test_every_cell_correct(self, artifact):
        for grid in artifact["grids"].values():
            assert grid["ok"] == grid["cells"]
            assert grid["violations"] == 0
            for record in grid["records"]:
                assert record["metrics"]["correct"] is True
        assert all(check["passed"] for check in artifact["checks"])
