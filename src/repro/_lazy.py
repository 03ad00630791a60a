"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that re-exports its public names eagerly imports
every submodule, so ``import repro.runtime`` would pay for the serving,
cluster and checking stacks too.  :func:`lazy_exports` instead resolves
each re-exported name on first attribute access (``repro.Composer``,
``from repro import Composer``, ``from repro import *``) and caches it
in the package namespace, so later accesses are plain attribute reads.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps a module to the names it provides, as the
    ``from module import names`` lines it replaces did.  A name whose
    module is the submodule ``package.name`` resolves to that submodule.
    Any other attribute raises :class:`AttributeError` as usual.
    """
    source = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(source[name])
        is_submodule = module.__name__ == f"{package}.{name}"
        value = module if is_submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return __getattr__, __dir__
