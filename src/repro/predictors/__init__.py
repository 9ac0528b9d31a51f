"""Baseline value predictors rebuilt from the literature.

These are the comparison points the paper evaluates gDiff against:
last-value, last-N, local (two-delta) stride, FCM, DFCM ("local context"),
and the first-order Markov address predictor — plus the 3-bit confidence
mechanism that gates all realistic configurations.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("ConstantPredictor", "PredictionStats", "ValuePredictor"),
    ".confidence": ("ConfidenceTable", "GatedPredictor"),
    ".ddisc": ("DDISCPredictor", "run_ddisc"),
    ".dfcm": ("DFCMPredictor",),
    ".fcm": ("FCMPredictor", "fold_context"),
    ".gfcm": ("GlobalFCMPredictor",),
    ".hybrid_local": ("HybridLocalPredictor",),
    ".last_n": ("LastNValuePredictor",),
    ".last_value": ("LastValuePredictor",),
    ".markov": ("MarkovPredictor",),
    ".pi": ("PIPredictor",),
    ".stride": ("StridePredictor",),
})
