"""Experiment-campaign orchestration: declarative sweeps, a durable
content-addressed results store, and resumable fault-tolerant scheduling.

The paper's evidence is a large parametric study; this package makes such
studies declarative (``spec``), durable (``store``), restartable and
crash-tolerant (``scheduler``), and checkable against the paper's
headline numbers (``fidelity``), with reporting straight from the store
(``report``).  The CLI front end is ``repro campaign run|status|report|
resume`` (see docs/CAMPAIGNS.md).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fidelity": ("FidelityCheck", "check_fidelity", "render_checks"),
    ".report": (
        "render_report", "report_tables", "status_lines", "telemetry_lines",
        "watch_lines",
    ),
    ".scheduler": ("CampaignRunSummary", "CampaignScheduler", "RetryPolicy"),
    ".spec": ("CampaignSpec", "Cell", "SpecError"),
    ".store": ("CampaignStore", "StoreError"),
})
