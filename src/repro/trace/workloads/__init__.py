"""SPECint2000-like synthetic benchmark suite.

The paper evaluates on ten SPECint2000 benchmarks with reference inputs.
Real SPEC traces are unavailable here, so each module in this package
builds a synthetic workload whose *value-stream structure* matches what
the paper (and the memory-behaviour literature it cites) reports for that
benchmark: the mix of local-stride, local-context, global-stride and
unpredictable values; pointer intensity; data footprint; and branch
behaviour.  See DESIGN.md for the substitution argument.

Use :func:`get` / :data:`BENCHMARKS` to enumerate the suite:

    >>> from repro.trace.workloads import get, BENCHMARKS
    >>> trace = get("mcf").trace(100_000)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..._lazy import import_module

if TYPE_CHECKING:
    from ..synthetic import WorkloadSpec

#: The paper's benchmark order (as in every figure's x axis).
BENCHMARKS: List[str] = [
    "bzip2",
    "gap",
    "gcc",
    "gzip",
    "mcf",
    "parser",
    "perl",
    "twolf",
    "vortex",
    "vpr",
]


def get(name: str) -> WorkloadSpec:
    """Return a fresh :class:`WorkloadSpec` for workload *name*.

    Resolution order: the synthetic SPECint-like suite, the adversarial
    bank (:mod:`.adversarial`), then the imported-workload store
    (:mod:`repro.trace.ingest.store`) — so every consumer (cache, shm
    plane, campaigns) accepts imported and adversarial names
    wherever a benchmark name is accepted.
    """
    if name in BENCHMARKS:
        # Each generator module is imported on first use, so resolving
        # or validating a name costs no generator code.
        return import_module(f"{__name__}.{name}").spec()
    from . import adversarial

    if name in adversarial.SCENARIOS:
        return adversarial.get(name)
    from ..ingest import store as ingest_store

    if name in ingest_store.imported_names():
        return ingest_store.get_spec(name)
    raise KeyError(
        f"unknown workload {name!r}; choose from {known_names()}"
    ) from None


def known_names() -> List[str]:
    """Every resolvable workload name: suite, adversarial bank, imports."""
    from . import adversarial
    from ..ingest import store as ingest_store

    return list(BENCHMARKS) + list(adversarial.SCENARIOS) + \
        ingest_store.imported_names()


def is_known(name: str) -> bool:
    """True when :func:`get` would resolve *name*."""
    if name in BENCHMARKS:
        return True
    from . import adversarial

    if name in adversarial.SCENARIOS:
        return True
    from ..ingest import store as ingest_store

    return name in ingest_store.imported_names()


def all_specs() -> Dict[str, WorkloadSpec]:
    """Return {name: spec} for the full suite, in the paper's order."""
    return {name: get(name) for name in BENCHMARKS}
