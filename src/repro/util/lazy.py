"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every submodule it re-exports makes
importing *any* of its submodules pay for all of them: asking for
``repro.fluidsim.vec`` used to load the scalar fluid adapters, and the
runner used to load every figure generator.  :func:`lazy_exports` gives
a package a module ``__getattr__`` that imports the defining submodule
the first time a re-exported name is read, so every public name stays
importable from the package while a request loads only what it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose public names
    are defined in the submodules ``exports`` maps to them.

    A resolved name is stored in the package namespace, so the import
    runs once and later reads are plain attribute lookups.
    """
    namespace = sys.modules[package].__dict__
    home = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(home[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
