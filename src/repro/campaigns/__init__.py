"""Declarative experiment campaigns with adaptive sweeps and fits.

One spec file (TOML or JSON) describes dense grids over the
orchestrator's axes, adaptive drivers (bisection crossover search,
fault-rate threshold scan), statistical fits with bootstrap
confidence bands, and pass/fail checks; one resumable command runs it
all into a byte-reproducible ``repro-campaign/1`` report.  See
``docs/campaigns.md`` and ``examples/campaigns/``.
"""

from .drivers import (
    DRIVER_KINDS,
    BisectDriver,
    BisectSearch,
    DriverBudgetError,
    ProbeSide,
    ThresholdDriver,
    build_driver,
    default_budget,
)
from .report import (
    CAMPAIGN_SCHEMA,
    build_report,
    checks_passed,
    load_report,
    render_report,
    validate_campaign_report,
    write_report,
)
from .runner import (
    CampaignError,
    LocalGridExecutor,
    MissingRecordsError,
    ServiceGridExecutor,
    StoreReplayExecutor,
    campaign_root,
    ledger_path,
    report_path,
    run_campaign,
)
from .spec import (
    CampaignSpec,
    CampaignSpecError,
    CheckSection,
    FitSection,
    GridSection,
)

__all__ = [
    "BisectDriver",
    "BisectSearch",
    "CAMPAIGN_SCHEMA",
    "CampaignError",
    "CampaignSpec",
    "CampaignSpecError",
    "CheckSection",
    "DRIVER_KINDS",
    "DriverBudgetError",
    "FitSection",
    "GridSection",
    "LocalGridExecutor",
    "MissingRecordsError",
    "ProbeSide",
    "ServiceGridExecutor",
    "StoreReplayExecutor",
    "ThresholdDriver",
    "build_driver",
    "build_report",
    "campaign_root",
    "checks_passed",
    "default_budget",
    "ledger_path",
    "load_report",
    "render_report",
    "report_path",
    "run_campaign",
    "validate_campaign_report",
    "write_report",
]
