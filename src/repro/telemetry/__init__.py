"""Telemetry: structured metrics, phase timing, event tracing, manifests.

Design rules, enforced across the package:

* **Leave-on cheap.** Hot-path instrumentation is a single ``is not
  None`` guard when disabled and plain dict/attribute work when enabled —
  no locks, no string formatting, no allocation per event unless an event
  recorder is attached and sampling keeps the event.
* **One registry per run.** The CLI (or a test) creates a
  :class:`MetricsRegistry`, threads it through the layers it cares about,
  and exports everything at once via a :class:`RunManifest`.
* **Names are a contract.** Every emitted metric name is listed in
  ``docs/TELEMETRY.md``; tests assert the table and the code agree.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("EventRecorder",),
    ".log": (
        "configure_logging=configure", "get_logger", "verbosity_to_level",
    ),
    ".manifest": ("RunManifest", "git_revision"),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "PhaseTiming",
        "Series",
    ),
    ".progress": ("ProgressPrinter",),
    ".spans": (
        "Span", "SpanTracker", "chrome_trace_events", "write_chrome_trace",
    ),
})
