"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports its sub-modules' names eagerly
makes every importer of *any* sub-module pay for *all* of them — which
is how ``repro deps`` came to load numpy.  :func:`lazy_exports` keeps
the re-exported surface and defers each sub-module until one of its
names is first touched::

    from typing import TYPE_CHECKING
    from repro.util.lazy import lazy_exports

    if TYPE_CHECKING:  # what IDEs and type checkers see
        from repro.interp.cache import CacheConfig, simulate_cache

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.interp.cache": ("CacheConfig", "simulate_cache"),
    })

A resolved name is cached in the package's namespace, so only the first
access goes through ``__getattr__``; concurrent first accesses are
serialized by the import lock and resolve to the same object.  An
unknown name raises :class:`AttributeError`, which is also what lets
``from package import submodule`` fall through to a real sub-module
import.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The module-level ``(__getattr__, __dir__, __all__)`` triple for
    ``package``, given ``exports`` as ``{defining module: names it
    provides}``."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
