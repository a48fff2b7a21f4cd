"""Package exports resolved on first access (PEP 562).

``repro``, ``repro.engine`` and ``repro.serve`` re-export names from
their submodules.  Importing every submodule up front would make any
import of the package load the solvers and numpy, the cluster
coordinator included, which needs none of them.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], sources: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package whose public
    names live in submodules.

    ``sources`` maps each module to the names the package takes from
    it, written ``"attr as name"`` where the two differ, as in an
    import statement.  A name is imported on first access and then kept
    in ``namespace`` (the package's ``globals()``), so later reads are
    plain lookups.
    """
    where: dict[str, tuple[str, str]] = {}
    for module, entries in sources.items():
        for entry in entries:
            attr, _, name = entry.partition(" as ")
            where[name or attr] = (module, attr)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attr)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return __getattr__, __dir__
