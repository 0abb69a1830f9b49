"""Campaign ``[[checks]]``: load-time validation, verdicts, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSpec,
    CampaignSpecError,
    build_report,
    checks_passed,
    render_report,
    validate_campaign_report,
)
from repro.cli import main
from repro.orchestrator import RunRecord

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CAMPAIGNS = REPO_ROOT / "examples" / "campaigns"

#: Content hashes of the committed specs without checks.  Adding the
#: ``[[checks]]`` section must not move them: the payload gains a
#: ``checks`` key only when a spec declares one.
CROSSOVER_SPEC_HASH = (
    "5d8fd4bf9f15364a8b786939061cb71cfee5270e253cd142811f4e7a878a313e"
)
SMOKE_SPEC_HASH = (
    "8bfffef108370d42111f7733b5c59572f4d1098564ff3c0dbd268ecfe381e996"
)


def grid(name, sizes=(8, 16)):
    return {
        "name": name,
        "algorithms": ["randomized"],
        "families": ["ring"],
        "sizes": list(sizes),
        "seeds": 2,
    }


def payload(checks, grids=None, fits=None):
    return {
        "campaign": {"name": "checks"},
        "grids": grids or [grid("a"), grid("b")],
        "fits": fits if fits is not None else [
            {"name": "fa", "grid": "a", "model": "log", "resamples": 10}
        ],
        "checks": checks,
    }


def load(checks, **kwargs):
    return CampaignSpec.from_payload(
        payload(checks, **kwargs), source="spec.toml"
    )


class TestValidation:
    @pytest.mark.parametrize(
        "check, match",
        [
            ({"kind": "faster"}, "unknown kind 'faster'"),
            ({"kind": "spread", "fit": "fa"}, r"missing \['max'\]"),
            ({"kind": "correct", "grid": "a", "fit": "fa"}, "unknown keys"),
            ({"kind": "correct", "grid": "nope"}, "unknown grid 'nope'"),
            ({"kind": "spread", "fit": "nope", "max": 2}, "unknown fit"),
            ({"kind": "spread", "fit": "fa", "max": "big"}, "number 'max'"),
            (
                {"kind": "slower", "metric": "max_awake", "grid": "a",
                 "than": "nope"},
                "unknown grid 'nope'",
            ),
        ],
    )
    def test_malformed_checks_name_the_spec(self, check, match):
        with pytest.raises(CampaignSpecError, match=match) as excinfo:
            load([check])
        assert "spec.toml" in str(excinfo.value)

    def test_slower_needs_equal_sizes(self):
        grids = [grid("a"), grid("b", sizes=(8, 32))]
        with pytest.raises(CampaignSpecError, match="different sizes"):
            load(
                [{"kind": "slower", "metric": "max_awake", "grid": "a",
                  "than": "b"}],
                grids=grids,
            )

    def test_checks_enter_the_payload_only_when_declared(self):
        bare = CampaignSpec.from_payload(
            {key: value for key, value in payload([]).items()
             if key != "checks"}
        )
        assert "checks" not in bare.payload()
        assert CampaignSpec.from_payload(payload([])).spec_hash == (
            bare.spec_hash
        )
        checked = load([{"kind": "correct", "grid": "a"}])
        assert checked.payload()["checks"] == [
            {"kind": "correct", "grid": "a"}
        ]
        assert checked.spec_hash != bare.spec_hash


class TestFitAlgorithm:
    def fit(self, algorithm):
        return load(
            [], fits=[{"name": "f", "grid": "a", "algorithm": algorithm}]
        ).fits[0]

    def test_alias_resolves_to_the_canonical_name(self):
        assert self.fit("randomized").algorithm == "Randomized-MST"

    def test_algorithm_not_on_the_grid_is_rejected_at_load(self):
        with pytest.raises(CampaignSpecError, match="does not run") as excinfo:
            self.fit("deterministic")
        assert "spec.toml" in str(excinfo.value)

    def test_unknown_algorithm_is_rejected_at_load(self):
        with pytest.raises(CampaignSpecError, match="Quantum") as excinfo:
            self.fit("Quantum-MST")
        assert "spec.toml" in str(excinfo.value)


def records_for(spec, name, value, correct=True, violations=0):
    """Synthetic ok records: ``value(n, seed)`` as ``max_awake``."""
    section = next(g for g in spec.grids if g.name == name)
    return [
        RunRecord.ok(
            job,
            {
                "algorithm": job.algorithm,
                "n": job.n,
                "seed": job.seed,
                "max_awake": value(job.n, job.seed),
                "correct": correct,
                "violations": violations,
            },
        )
        for job in section.specs()
    ]


def verdicts(checks, a, b, **kwargs):
    spec = load(checks)
    grid_records = {
        "a": records_for(spec, "a", a, **kwargs),
        "b": records_for(spec, "b", b),
    }
    report = build_report(spec, grid_records)
    validate_campaign_report(report)
    return report


SLOWER = {"kind": "slower", "metric": "max_awake", "grid": "a", "than": "b"}


class TestEvaluation:
    def test_correct_passes_on_clean_cells(self):
        report = verdicts([{"kind": "correct", "grid": "a"}],
                          lambda n, s: n, lambda n, s: n)
        (check,) = report["checks"]
        assert check["passed"] is True
        assert (check["cells"], check["incorrect"], check["violations"]) == (
            4, 0, 0
        )

    def test_correct_fails_on_a_wrong_cell(self):
        report = verdicts([{"kind": "correct", "grid": "a"}],
                          lambda n, s: n, lambda n, s: n, correct=False)
        assert report["checks"][0]["incorrect"] == 4
        assert not checks_passed(report)

    def test_correct_fails_on_violations(self):
        report = verdicts([{"kind": "correct", "grid": "a"}],
                          lambda n, s: n, lambda n, s: n, violations=1)
        assert report["checks"][0]["violations"] == 4
        assert report["checks"][0]["passed"] is False

    def test_spread_bounds_the_fit(self):
        # n=8 -> 3, n=16 -> 8: ratios 1 and 2 to log2 n, spread 2.
        value = lambda n, s: {8: 3, 16: 8}[n]  # noqa: E731
        passing = verdicts([{"kind": "spread", "fit": "fa", "max": 2.0}],
                           value, value)
        assert passing["checks"][0]["ratio_spread"] == pytest.approx(2.0)
        assert checks_passed(passing)
        failing = verdicts([{"kind": "spread", "fit": "fa", "max": 1.5}],
                           value, value)
        assert not checks_passed(failing)

    def test_slower_compares_growth(self):
        report = verdicts([SLOWER], lambda n, s: n + 10, lambda n, s: n)
        (check,) = report["checks"]
        assert check["growth"] == pytest.approx(26 / 18, abs=1e-4)
        assert check["than_growth"] == pytest.approx(2.0)
        assert check["passed"] is True
        report = verdicts([SLOWER], lambda n, s: n, lambda n, s: n + 10)
        assert report["checks"][0]["passed"] is False

    def test_render_prints_one_verdict_per_check(self):
        report = verdicts(
            [{"kind": "correct", "grid": "a"}, SLOWER],
            lambda n, s: n, lambda n, s: n + 10,
        )
        lines = [
            line for line in render_report(report).splitlines()
            if line.startswith("check ")
        ]
        assert len(lines) == 2
        assert "PASS" in lines[0] and "FAIL" in lines[1]

    def test_validate_rejects_malformed_checks(self):
        report = verdicts([SLOWER], lambda n, s: n, lambda n, s: n)
        del report["checks"][0]["passed"]
        with pytest.raises(ValueError, match="boolean 'passed'"):
            validate_campaign_report(report)
        report["checks"] = [{"kind": "faster", "passed": True}]
        with pytest.raises(ValueError, match="unknown kind"):
            validate_campaign_report(report)


class TestCommittedSpecsWithoutChecks:
    def test_spec_hashes_are_pinned(self):
        crossover = CampaignSpec.load(CAMPAIGNS / "crossover.toml")
        smoke = CampaignSpec.load(CAMPAIGNS / "smoke.toml")
        assert crossover.spec_hash == CROSSOVER_SPEC_HASH
        assert smoke.spec_hash == SMOKE_SPEC_HASH
        assert "checks" not in crossover.payload()
        assert "checks" not in smoke.payload()

    def test_crossover_report_has_no_checks_key(self):
        report = json.loads((REPO_ROOT / "CAMPAIGN_crossover.json").read_text())
        assert report["spec_hash"] == CROSSOVER_SPEC_HASH
        assert "checks" not in report

    def test_smoke_report_has_no_checks_key(self, tmp_path, capsys):
        code = main(
            [
                "campaign", "run", str(CAMPAIGNS / "smoke.toml"),
                "--root", str(tmp_path), "--no-cache", "--quiet", "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["spec_hash"] == SMOKE_SPEC_HASH
        assert "checks" not in report


CLI_SPEC = """\
[campaign]
name = "cli-checks"

[[grids]]
name = "g"
algorithms = ["randomized"]
families = ["ring"]
sizes = [8, 16]
seeds = 1

[[fits]]
name = "awake"
grid = "g"
resamples = 10

[[checks]]
kind = "correct"
grid = "g"

[[checks]]
kind = "spread"
fit = "awake"
max = {limit}
"""


class TestCampaignExitCode:
    def run(self, tmp_path, limit):
        path = tmp_path / f"spec-{limit}.toml"
        path.write_text(CLI_SPEC.format(limit=limit))
        return main(
            [
                "campaign", "run", str(path),
                "--root", str(tmp_path / "campaigns"),
                "--cache-dir", str(tmp_path / "cache"),
                "--quiet",
            ]
        )

    def test_passing_checks_exit_zero(self, tmp_path, capsys):
        assert self.run(tmp_path, 100.0) == 0
        assert "check spread  PASS" in capsys.readouterr().out

    def test_failed_check_exits_one(self, tmp_path, capsys):
        # A ratio spread is max/min of positive ratios: never below 1.
        assert self.run(tmp_path, 0.5) == 1
        out = capsys.readouterr().out
        assert "check correct PASS" in out
        assert "check spread  FAIL" in out

    def test_report_replay_exits_one_too(self, tmp_path, capsys):
        self.run(tmp_path, 0.5)
        code = main(
            [
                "campaign", "report", str(tmp_path / "spec-0.5.toml"),
                "--root", str(tmp_path / "campaigns"), "--quiet",
            ]
        )
        assert code == 1
        capsys.readouterr()
