"""Lazy package surfaces: the one mechanism behind every ``__init__``.

A package's public names live in its submodules; importing the package
must not import them (see "Import tiers" in ``docs/API.md``).  Each
``__init__`` therefore only declares where its names come from::

    __getattr__, __dir__, __all__ = lazy(__name__, {
        ".config": ["HB_16x8", ("KERNELS", "SUITE")],  # (public, attr) renames
        ".serialize": None,                            # the submodule itself
    })

and the first ``package.name`` (or ``from package import name``) imports
that one submodule, binds the value on the package and returns it --
PEP 562.  ``__all__`` lists the names in declaration order, so
``from package import *`` and ``dir(package)`` see what they always did.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

Exports = Mapping[str, Optional[Sequence[Any]]]


def lazy(package: str, exports: Exports
         ) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    table: Dict[str, Tuple[str, Optional[str]]] = {}
    for module, names in exports.items():
        if names is None:
            table[module.rpartition(".")[2]] = (module, None)
            continue
        for name in names:
            public, attr = name if isinstance(name, tuple) else (name, name)
            table[public] = (module, attr)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = import_module(module, package)
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
