"""Table 1 as a campaign (examples/campaigns/table1.toml) and the energy model."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import MODELS, EnergyModel
from repro.campaigns import (
    CampaignSpec,
    LocalGridExecutor,
    load_report,
    render_report,
    run_campaign,
)
from repro.core import run_randomized_mst
from repro.graphs import ring_graph
from repro.sim import Metrics

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = REPO_ROOT / "CAMPAIGN_table1.json"
SPEC = REPO_ROOT / "examples" / "campaigns" / "table1.toml"


class TestTable1:
    """The committed Table-1 campaign, run on a small grid."""

    @pytest.fixture(scope="class")
    def report(self, shrunk_campaign, tmp_path_factory):
        spec = CampaignSpec.from_payload(shrunk_campaign("table1", [8, 16], 1))
        store = tmp_path_factory.mktemp("table1") / "runs.jsonl"
        return run_campaign(spec, LocalGridExecutor(store=store))

    def test_rows_cover_sizes(self, report):
        for fit in report["fits"].values():
            assert [point["n"] for point in fit["points"]] == [8, 16]

    def test_all_runs_correct(self, report):
        correct = [c for c in report["checks"] if c["kind"] == "correct"]
        assert len(correct) == len(report["grids"]) == 3
        assert all(check["passed"] for check in correct)

    def test_awake_fit_available(self, report):
        fit = report["fits"]["randomized-awake-vs-logn"]
        assert fit["model"] == "log"
        assert fit["constant"] > 0

    def test_render_contains_columns(self, report):
        text = render_report(report)
        assert "randomized-awake-vs-logn: max_awake =" in text
        assert "deterministic-rounds-vs-n2logn: rounds =" in text
        assert "check spread" in text

    def test_traditional_comparator_runs(self, report):
        records = [
            record["metrics"] for record in report["grids"]["gnp"]["records"]
            if record["metrics"]["algorithm"] == "Traditional-GHS"
        ]
        assert records
        for metrics in records:
            assert metrics["max_awake"] == metrics["rounds"]  # always awake


class TestCommittedArtifact:
    """CAMPAIGN_table1.json carries the numbers EXPERIMENTS.md quotes."""

    @pytest.fixture(scope="class")
    def artifact(self):
        return load_report(ARTIFACT)

    def test_artifact_is_the_committed_spec(self, artifact):
        assert artifact["spec_hash"] == CampaignSpec.load(SPEC).spec_hash
        assert artifact["summary"]["failed"] == 0

    @pytest.mark.parametrize(
        "fit, constant, spread",
        [
            ("randomized-awake-vs-logn", 26.2, 1.59),
            ("randomized-rounds-vs-nlogn", 40.8, 1.40),
            ("deterministic-awake-vs-logn", 27.8, 1.64),
            ("deterministic-rounds-vs-n2logn", 8.5, 1.68),
        ],
    )
    def test_fits_match_experiments_md(self, artifact, fit, constant, spread):
        band = artifact["fits"][fit]
        assert round(band["constant"], 1) == constant
        assert round(band["ratio_spread"], 2) == spread

    def test_every_check_passes(self, artifact):
        kinds = [check["kind"] for check in artifact["checks"]]
        assert kinds.count("correct") == 3
        assert kinds.count("spread") == 5
        assert all(check["passed"] for check in artifact["checks"])

    def test_spread_is_the_ratio_to_the_model(self, artifact):
        for fit in artifact["fits"].values():
            model = MODELS[fit["model"]]
            ratios = [p["mean"] / model(p["n"]) for p in fit["points"]]
            assert max(ratios) / min(ratios) == pytest.approx(
                fit["ratio_spread"], rel=1e-3
            )


class TestEnergyModel:
    def test_sleeping_is_cheap(self):
        model = EnergyModel()
        active = model.node_energy(awake_rounds=100, messages_sent=0, total_rounds=100)
        dozing = model.node_energy(awake_rounds=1, messages_sent=0, total_rounds=100)
        assert active > 50 * dozing

    def test_transmissions_priced(self):
        model = EnergyModel()
        silent = model.node_energy(10, 0, 10)
        chatty = model.node_energy(10, 5, 10)
        assert chatty == silent + 5 * model.tx_mj

    def test_run_energy_per_node(self):
        metrics = Metrics()
        metrics.rounds = 100
        metrics.node(1).awake_rounds = 10
        metrics.node(2).awake_rounds = 1
        energies = EnergyModel().run_energy(metrics)
        assert energies[1] > energies[2]

    def test_executions_per_battery_positive(self):
        graph = ring_graph(16, seed=1)
        result = run_randomized_mst(graph, seed=0)
        runs = EnergyModel().executions_per_battery(result.metrics)
        assert runs > 0

    def test_empty_metrics_edge_cases(self):
        model = EnergyModel()
        assert model.max_node_energy(Metrics()) == 0.0
        assert model.executions_per_battery(Metrics()) == float("inf")
