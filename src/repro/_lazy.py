"""Lazy package surfaces (PEP 562).

A package states its public names once, as a table from each submodule
to the names it defines, and :func:`lazy_exports` turns that table into
the package's ``__all__``, ``__getattr__`` and ``__dir__``.  A name's
submodule is imported on first access, so a process loads only the
submodules it uses: a simulator child never imports the asyncio server,
and a service worker never imports the load generator.
"""

from __future__ import annotations

import importlib
from typing import Iterator, Mapping

#: Submodule (relative to the package) -> the public names it defines.
#: ``"public=attr"`` exports the submodule's ``attr`` as ``public``.
ExportTable = Mapping[str, tuple[str, ...]]


def exported_names(table: ExportTable) -> Iterator[tuple[str, str, str]]:
    """Yield ``(public name, submodule, attribute)`` for every entry."""
    for module, names in table.items():
        for name in names:
            public, _, attr = name.partition("=")
            yield public, module, attr or public


def lazy_exports(namespace: dict, table: ExportTable):
    """Return ``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``.

    A resolved name is stored in ``namespace``, so ``__getattr__`` runs
    once per name and later lookups are plain attribute reads.
    """
    package = namespace["__name__"]
    where = {public: (module, attr) for public, module, attr in exported_names(table)}

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{module}"), attr)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return sorted(where), __getattr__, __dir__
