"""Smoke tests for every EXPERIMENTS.md driver (quick mode).

These guarantee that `python -m repro.analysis.experiments` — the source of
every number in EXPERIMENTS.md — keeps working as the library evolves.
Heavier drivers are marked slow.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    experiment_ablation_coin,
    experiment_baseline_gap,
    experiment_corollary1,
    experiment_energy,
    experiment_fig1_reduction,
    experiment_fig2_5,
    experiment_lemma1,
    experiment_theorem3,
    experiment_theorem4,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_all_paper_artifacts_have_drivers(self):
        # Table 1 is a committed campaign, not an experiment driver.
        assert (REPO_ROOT / "examples" / "campaigns" / "table1.toml").exists()
        assert set(ALL_EXPERIMENTS) >= {
            "theorem3",
            "theorem4",
            "fig1",
            "fig2_5",
            "lemma1",
            "corollary1",
            "ablation_coin",
            "baseline_gap",
            "energy",
        }


class TestQuickDrivers:
    def test_fig2_5(self):
        outcome = experiment_fig2_5()
        assert outcome["u_tails"] == 5 and outcome["u_heads"] == 11

    def test_ablation_coin(self):
        outcome = experiment_ablation_coin(quick=True)
        assert outcome["moe_chain"]["restricted_worst_diameter"] <= 2

    def test_lemma1(self):
        outcome = experiment_lemma1(quick=True)
        assert outcome["fixed_mode_success"] == 1.0
        for family in outcome["contraction"].values():
            assert family["mean_ratio"] > 1.2

    def test_corollary1(self):
        outcome = experiment_corollary1(quick=True)
        rows = outcome["rows"]
        assert rows[-1]["fast_rounds"] > 5 * rows[0]["fast_rounds"]
        assert rows[-1]["logstar_rounds"] < 2 * rows[0]["logstar_rounds"]

    def test_energy(self):
        outcome = experiment_energy(quick=True)
        assert (
            outcome["traditional_worst_energy_mj"]
            > 10 * outcome["sleeping_worst_energy_mj"]
        )


@pytest.mark.slow
class TestHeavyDrivers:
    def test_theorem3(self):
        outcome = experiment_theorem3(quick=True)
        assert outcome["all_certificates_hold"]
        assert outcome["awake_fit"].is_bounded(4.0)

    def test_theorem4(self):
        outcome = experiment_theorem4(quick=True)
        assert outcome["min_product_per_n"] >= 1.0

    def test_fig1(self):
        outcome = experiment_fig1_reduction(quick=True)
        assert outcome["oracle_all_correct"]
        assert outcome["css_matches_sd"]

    def test_baseline_gap(self):
        outcome = experiment_baseline_gap(quick=True)
        assert all(row["gap"] > 10 for row in outcome["rows"])
