"""Names a package serves from its submodules on first use.

A package that re-exports a submodule's names normally imports the
submodule with it, so every ``import repro`` would compile modules its
campaign never calls: the report, gate, trend and export tools, the
pack loader, networkx behind the propagation analysis.  A package lists
such names in one table instead, and :func:`lazy_names` gives it the
module-level ``__getattr__`` (PEP 562) that imports a name's submodule
the first time the name is touched and caches the value in the
package's namespace, so later lookups cost nothing::

    __getattr__, __all__ = lazy_names(
        __name__, {"gates": ("evaluate_gate", ...)}, globals()
    )

``from package import name`` and ``package.name`` both go through it.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable


def lazy_names(
    package: str, table: dict[str, tuple[str, ...]], namespace: dict
) -> tuple[Callable[[str], object], list[str]]:
    """The ``__getattr__`` of ``package``, serving each name listed in
    ``table`` (submodule → names) from that submodule, and its
    ``__all__``: the public names bound in ``namespace`` so far (its
    submodules aside) and the table's."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # __import__, not importlib.import_module: only the former is
        # timed by ``python -X importtime``.
        full = f"{package}.{module}"
        __import__(full)
        value = getattr(sys.modules[full], name)
        setattr(sys.modules[package], name, value)
        return value

    eager = [
        name
        for name, value in namespace.items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    return __getattr__, sorted(eager + list(where))
