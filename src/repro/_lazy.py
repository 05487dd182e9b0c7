"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package keeps its ``__all__`` and maps each module to the names it
re-exports from it; :func:`lazy_exports` returns the module-level
``__getattr__`` and ``__dir__`` that import a name's module on its
first access.  Importing a package, or any module inside one (a shard
worker starts from ``repro.core.shardworker``), then loads only the
modules that code asked for.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for *package*, re-exporting ``{module: names}``."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | origin.keys())

    return __getattr__, __dir__
