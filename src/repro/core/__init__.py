"""The paper's contribution: the gDiff global-stride value predictor.

* :class:`GDiffPredictor` — order-n gDiff over a shared global value queue
  (profile, value-delayed, and SGVQ deployments).
* :class:`HybridGDiffPredictor` — the HGVQ hybrid: dispatch-ordered queue
  seeded by a local filler predictor (the headline Figure 16 scheme).
* Queue and table building blocks for users composing their own variants.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gdiff": ("GDiffPredictor",),
    ".gvq": ("GlobalValueQueue", "SlottedValueQueue"),
    ".hybrid": ("HybridGDiffPredictor",),
    ".table": (
        "DISTANCE_POLICIES", "FlatGDiffTable", "GDiffEntry", "GDiffTable",
    ),
})
