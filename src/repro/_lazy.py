"""Lazy package re-exports (PEP 562).

A package ``__init__`` names what it re-exports and from which submodule;
the submodule is imported on the first access of one of its names, and
the name is then cached in the package's namespace.  Importing a single
submodule (``import repro.lb.server``) therefore no longer loads every
sibling its package re-exports from::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".invariants": ("InvariantMonitor", "watch"),
        ".lint": ("lint_paths",),
    })

``from package import name`` and ``from package import *`` (over
``__all__``) resolve through the same hook.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a relative submodule name to the names it provides.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
