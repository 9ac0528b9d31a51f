"""Lazy package exports (PEP 562).

A package that re-exports names from its submodules lists them in one
table; each submodule is imported the first time one of its names is
read.  ``import repro.campaign`` then costs only the package itself, and
``from repro.campaign import render_report`` imports ``.report`` (and
what it needs) but not the scheduler and its worker pool.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable, Dict, List, Sequence, Tuple


def import_module(name: str) -> ModuleType:
    """``importlib.import_module`` for an absolute *name*, through the
    interpreter's own import path, so ``python -X importtime`` lists the
    module like any ``import`` statement's."""
    __import__(name)
    return sys.modules[name]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for *package*.

    *exports* maps each submodule (``".report"``) to the names it
    provides; ``"alias=name"`` exports ``name`` as ``alias``.  A resolved
    name is stored on the package, so later reads skip the hook and a
    rebinding (a test spy, a tracer's wrapper) is what callers see.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            alias, _, name = entry.partition("=")
            where[alias] = (module, name or alias)

    def __getattr__(name: str) -> object:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(package + module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
