"""Experiment harness: runners, the per-figure experiment registry, and
ASCII reporting that prints the same rows/series the paper's tables and
figures report."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".experiments": ("EXPERIMENTS", "run_experiment"),
    ".parallel": ("default_workers", "parallel_map", "run_experiments"),
    ".report": ("ExperimentResult",),
    ".runner": (
        "run_address_prediction", "run_value_prediction", "warm_then_measure",
    ),
    ".workbank": (
        "BANK_GROUPS", "DEFAULT_BANK_PREDICTORS", "render_bank", "run_bank",
    ),
})
