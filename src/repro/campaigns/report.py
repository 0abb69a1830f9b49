"""The ``repro-campaign/1`` report artifact: build, validate, render.

A campaign run distils into one JSON document — the report — holding the
spec's content hash, every grid's records (deterministic portions only),
every driver's audit trail, every fit with its bootstrap bands, and —
when the spec declares any — every check's verdict.  The
report is *replay-stable*: it is built exclusively from record
fingerprints (never telemetry), records are listed in canonical grid
expansion order (never execution order), and fits use fixed bootstrap
seeds — so running a campaign, killing it mid-grid, and resuming
produces a byte-identical ``report.json``.  CI and the resume tests
lean on that byte-identity directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.fits import fit_records, render_fit
from repro.analysis.stats import mean
from repro.orchestrator import RunRecord, grid_key
from repro.orchestrator.store import STATUS_OK

from .spec import CHECK_KEYS, CampaignSpec, CheckSection

#: Version tag of the campaign report schema.
CAMPAIGN_SCHEMA = "repro-campaign/1"

#: Required top-level keys of a report payload.
REPORT_KEYS = (
    "schema", "campaign", "description", "spec_hash",
    "grids", "drivers", "fits", "summary",
)


def deterministic_record(record: RunRecord) -> Dict[str, Any]:
    """The replay-stable portion of a record (its fingerprint content)."""
    return json.loads(record.fingerprint())


def _growth(records: Sequence[RunRecord], metric: str) -> float:
    """Mean ``metric`` at the largest n over the mean at the smallest n."""
    by_size: Dict[int, List[float]] = {}
    for record in records:
        value = (record.metrics or {}).get(metric)
        if record.status == STATUS_OK and value is not None:
            by_size.setdefault(int(record.metrics["n"]), []).append(value)
    if not by_size:
        raise ValueError(f"no usable records to measure growth of {metric!r}")
    return mean(by_size[max(by_size)]) / max(mean(by_size[min(by_size)]), 1e-9)


def evaluate_check(
    check: CheckSection,
    grid_records: Mapping[str, Sequence[RunRecord]],
    fits: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Any]:
    """One check's verdict: its spec keys, what was measured, ``passed``."""
    verdict: Dict[str, Any] = check.to_payload()
    if check.kind == "correct":
        records = grid_records.get(check.grid, [])
        incorrect = sum(
            1 for record in records
            if record.status != STATUS_OK
            or not (record.metrics or {}).get("correct")
        )
        violations = sum(
            (record.metrics or {}).get("violations") or 0
            for record in records
        )
        verdict.update(
            cells=len(records),
            incorrect=incorrect,
            violations=violations,
            passed=incorrect == 0 and violations == 0,
        )
    elif check.kind == "spread":
        spread = fits[check.fit]["ratio_spread"]
        verdict.update(ratio_spread=spread, passed=spread <= check.max)
    else:
        growth = _growth(grid_records.get(check.grid, []), check.metric)
        than = _growth(grid_records.get(check.than, []), check.metric)
        verdict.update(
            growth=round(growth, 4),
            than_growth=round(than, 4),
            passed=growth < than,
        )
    return verdict


def checks_passed(payload: Mapping[str, Any]) -> bool:
    """True iff every check in a report payload passed (vacuous if none)."""
    return all(check["passed"] for check in payload.get("checks") or [])


def build_report(
    spec: CampaignSpec,
    grid_records: Mapping[str, Sequence[RunRecord]],
    driver_results: Sequence[Mapping[str, Any]] = (),
) -> Dict[str, Any]:
    """Assemble the report payload from a campaign's measurements.

    ``grid_records`` maps grid name -> records in canonical expansion
    order (the runner guarantees the order).  Fits declared in the spec
    are computed here, from the ok records of their grid — so a report
    rebuilt from a finished ledger carries identical fits.
    """
    grids: Dict[str, Any] = {}
    totals = {"cells": 0, "ok": 0, "failed": 0, "violations": 0}
    for section in spec.grids:
        records = list(grid_records.get(section.name, []))
        ok = sum(1 for record in records if record.status == STATUS_OK)
        violations = sum(
            (record.metrics or {}).get("violations") or 0
            for record in records
        )
        grids[section.name] = {
            "grid_key": grid_key(section.specs()),
            "cells": len(records),
            "ok": ok,
            "failed": len(records) - ok,
            "violations": violations,
            "records": [deterministic_record(record) for record in records],
        }
        totals["cells"] += len(records)
        totals["ok"] += ok
        totals["failed"] += len(records) - ok
        totals["violations"] += violations

    fits: Dict[str, Any] = {}
    for fit in spec.fits:
        records = [
            record.metrics
            for record in grid_records.get(fit.grid, [])
            if record.status == STATUS_OK and record.metrics is not None
        ]
        band = fit_records(
            records,
            metric=fit.metric,
            model=fit.model,
            algorithm=fit.algorithm,
            resamples=fit.resamples,
            confidence=fit.confidence,
            seed=fit.seed,
        )
        fits[fit.name] = {"grid": fit.grid, **band.to_dict()}

    report = {
        "schema": CAMPAIGN_SCHEMA,
        "campaign": spec.name,
        "description": spec.description,
        "spec_hash": spec.spec_hash,
        "grids": grids,
        "drivers": [dict(result) for result in driver_results],
        "fits": fits,
        "summary": totals,
    }
    # Only present when declared, so reports of specs without checks
    # keep their bytes.
    if spec.checks:
        report["checks"] = [
            evaluate_check(check, grid_records, fits) for check in spec.checks
        ]
    return report


def validate_campaign_report(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Structurally validate a report payload; raises ``ValueError``.

    Checks the schema tag, the presence and shapes of every section, and
    the internal consistency of the counts (per-grid cell counts match
    their record lists; the summary matches the per-grid totals).
    Returns the payload so callers can chain.
    """
    problems: List[str] = []
    schema = payload.get("schema")
    if schema != CAMPAIGN_SCHEMA:
        raise ValueError(
            f"unexpected campaign report schema {schema!r} "
            f"(wanted {CAMPAIGN_SCHEMA!r})"
        )
    for key in REPORT_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    grids = payload.get("grids")
    totals = {"cells": 0, "ok": 0, "failed": 0, "violations": 0}
    if not isinstance(grids, Mapping):
        problems.append("'grids' must be a mapping")
        grids = {}
    for name, grid in grids.items():
        for key in ("grid_key", "cells", "ok", "failed", "violations", "records"):
            if key not in grid:
                problems.append(f"grid {name!r} is missing {key!r}")
        records = grid.get("records") or []
        if grid.get("cells") != len(records):
            problems.append(
                f"grid {name!r} claims {grid.get('cells')} cells but "
                f"lists {len(records)} records"
            )
        for index, record in enumerate(records):
            for key in ("key", "spec", "status"):
                if key not in record:
                    problems.append(
                        f"grid {name!r} record #{index} is missing {key!r}"
                    )
        for key in totals:
            totals[key] += int(grid.get(key) or 0)
    summary = payload.get("summary") or {}
    for key, expected in totals.items():
        if summary.get(key) != expected:
            problems.append(
                f"summary.{key}={summary.get(key)!r} disagrees with "
                f"per-grid total {expected}"
            )
    for index, driver in enumerate(payload.get("drivers") or []):
        for key in ("kind", "name", "probes", "probe_count"):
            if key not in driver:
                problems.append(f"driver #{index} is missing {key!r}")
        probes = driver.get("probes")
        if probes is not None and driver.get("probe_count") != len(probes):
            problems.append(
                f"driver #{index} probe_count disagrees with its probes"
            )
    fits = payload.get("fits")
    if fits is not None and not isinstance(fits, Mapping):
        problems.append("'fits' must be a mapping")
    for name, fit in (fits or {}).items():
        for key in ("grid", "metric", "model", "constant", "points"):
            if key not in fit:
                problems.append(f"fit {name!r} is missing {key!r}")
    checks = payload.get("checks", [])
    if not isinstance(checks, list):
        problems.append("'checks' must be a list")
        checks = []
    for index, check in enumerate(checks):
        keys = CHECK_KEYS.get(check.get("kind"))
        if keys is None:
            problems.append(
                f"check #{index} has unknown kind {check.get('kind')!r}"
            )
            continue
        for key in keys:
            if key not in check:
                problems.append(f"check #{index} is missing {key!r}")
        if not isinstance(check.get("passed"), bool):
            problems.append(f"check #{index} needs a boolean 'passed'")
    if problems:
        raise ValueError(
            "invalid campaign report: " + "; ".join(problems)
        )
    return dict(payload)


def write_report(
    payload: Mapping[str, Any], path: Union[str, Path]
) -> Path:
    """Write the report JSON with stable formatting (byte-reproducible)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a report artifact."""
    return validate_campaign_report(json.loads(Path(path).read_text()))


def render_report(payload: Mapping[str, Any]) -> str:
    """Render a report payload as a human-readable text block."""
    summary = payload["summary"]
    lines = [
        f"campaign {payload['campaign']!r}"
        + (f" — {payload['description']}" if payload.get("description") else ""),
        f"spec hash {payload['spec_hash'][:12]}  "
        f"{summary['cells']} cells, {summary['ok']} ok, "
        f"{summary['failed']} failed, "
        f"{summary['violations']} invariant violations",
    ]
    for name, grid in payload["grids"].items():
        lines.append(
            f"  grid {name:<16} {grid['cells']:>4} cells  "
            f"{grid['ok']:>4} ok  {grid['failed']:>3} failed  "
            f"{grid['violations']:>3} violations  "
            f"key {grid['grid_key'][:12]}"
        )
    for driver in payload.get("drivers") or []:
        if driver["kind"] == "bisect":
            found = driver.get("crossover")
            outcome = (
                f"crossover at n={found}" if found is not None
                else "no crossover in range"
            )
            lines.append(
                f"  bisect {driver['name']!r}: {outcome} "
                f"({driver['probe_count']} probes, budget "
                f"{driver.get('budget')}; {driver.get('predicate')})"
            )
            for probe in driver["probes"]:
                lines.append(
                    f"    n={probe['n']:>6}  left {probe['left']:>10.2f}  "
                    f"right {probe['right']:>10.2f}  "
                    f"{'TRUE' if probe['verdict'] else 'false'}"
                )
        elif driver["kind"] == "threshold":
            threshold = driver.get("threshold")
            outcome = (
                f"breaks at {driver['fault']}:{threshold:g}"
                if threshold is not None
                else f"survived all {driver['fault']} rates"
            )
            lines.append(
                f"  threshold {driver['name']!r}: {outcome} "
                f"({driver['probe_count']} rates probed, "
                f"{driver['algorithm']}/{driver['family']}/n={driver['n']})"
            )
            for probe in driver["probes"]:
                lines.append(
                    f"    rate={probe['rate']:<7g} "
                    f"incorrect {probe['incorrect']}/{probe['cells']}  "
                    f"violations {probe['violations']}  "
                    f"outcomes {','.join(probe['outcomes'])}"
                )
        else:
            lines.append(
                f"  driver {driver['name']!r} (kind={driver['kind']}): "
                f"{driver['probe_count']} probes"
            )
    for name, fit in (payload.get("fits") or {}).items():
        lines.append(render_fit(name, fit))
    for check in payload.get("checks") or []:
        lines.append(render_check(check))
    return "\n".join(lines)


def render_check(check: Mapping[str, Any]) -> str:
    """One verdict line for a check entry of a report."""
    verdict = "PASS" if check["passed"] else "FAIL"
    if check["kind"] == "correct":
        detail = (
            f"grid {check['grid']!r}: {check['cells']} cells, "
            f"{check['incorrect']} incorrect, "
            f"{check['violations']} violations"
        )
    elif check["kind"] == "spread":
        detail = (
            f"fit {check['fit']!r}: ratio spread "
            f"{check['ratio_spread']:.2f} <= {check['max']}"
        )
    else:
        detail = (
            f"{check['metric']} grows x{check['growth']:.2f} over "
            f"{check['grid']!r} < x{check['than_growth']:.2f} over "
            f"{check['than']!r}"
        )
    return f"check {check['kind']:<7} {verdict}  {detail}"
