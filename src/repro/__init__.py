"""repro — reproduction of "Detecting Global Stride Locality in Value
Streams" (Zhou, Flanagan & Conte, ISCA 2003).

The package provides:

* :mod:`repro.core` — the gDiff global-stride value predictor family
  (profile GVQ, value-delayed GVQ, SGVQ, and the HGVQ hybrid).
* :mod:`repro.predictors` — rebuilt baselines: last-value, last-N, local
  two-delta stride, FCM, DFCM, first-order Markov, and the 3-bit
  confidence mechanism.
* :mod:`repro.trace` — the dynamic-instruction model plus synthetic
  SPECint2000-like workload generators.
* :mod:`repro.pipeline` — a cycle-level 4-wide out-of-order core (MIPS
  R10000-like, Table 1 configuration) for value-delay, SGVQ/HGVQ and
  speedup studies.
* :mod:`repro.harness` — experiment runners and the registry that
  regenerates every table and figure in the paper's evaluation.

Quickstart::

    from repro.core import GDiffPredictor
    from repro.harness import run_value_prediction
    from repro.trace.workloads import get

    trace = get("parser").trace(100_000)
    stats = run_value_prediction(trace, {"gdiff": GDiffPredictor(order=8)})
    print(stats["gdiff"].raw_accuracy)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("GDiffPredictor", "HybridGDiffPredictor"),
    ".predictors": (
        "DFCMPredictor", "FCMPredictor", "LastNValuePredictor",
        "LastValuePredictor", "MarkovPredictor", "PredictionStats",
        "StridePredictor", "ValuePredictor",
    ),
})
__all__.append("__version__")
