"""Cycle-level out-of-order pipeline model (the paper's Table 1 machine).

* :class:`ProcessorConfig` / :class:`CacheConfig` — machine parameters.
* :class:`OutOfOrderCore` — the 4-wide, 64-entry-ROB trace-driven core
  with value-prediction hooks, selective reissue and value-delay
  measurement.
* Adapters in :mod:`repro.pipeline.vp` connect any predictor to the core.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".branch": ("GShare",),
    ".cache": ("Cache",),
    ".config": ("CacheConfig", "ProcessorConfig"),
    ".ooo": ("OutOfOrderCore", "SimResult"),
    ".vp": (
        "HGVQAdapter", "LocalPredictorAdapter", "PipelinePredictor",
        "SGVQAdapter",
    ),
})
