"""The composed application artefact.

``Composer.compose`` deploys the components and "builds an executable
application": a generated Python package on disk (stubs + registry +
peppher module + Makefile + deployed descriptors) plus this handle
object, which can import the generated package and drive it — the
reproduction's analog of running the linked executable.

The package is imported through :class:`_GeneratedLoader`, which never
reads or writes ``__pycache__``.  It compiles each module's source bytes
through one process-wide memo keyed on the bytes and the path, so a
recompose compiles only the modules whose bytes changed, and a module
rewritten on disk always loads its new source.  The loader records the
modules it loads per package, so a re-import evicts exactly those from
``sys.modules`` instead of scanning it.

An application composed into a temporary directory of its own removes
that directory when it is collected.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import weakref
from pathlib import Path
from types import CodeType, ModuleType

from repro.composer.ir import ComponentTree
from repro.errors import CompositionError


@functools.lru_cache(maxsize=256)
def _compile(source: bytes, path: str) -> CodeType:
    # keyed on the path too, because a code object carries it as
    # co_filename; 256 entries hold the ten Table-I apps' 48 modules
    return compile(source, path, "exec", dont_inherit=True)


class _GeneratedLoader(importlib.machinery.SourceFileLoader):
    """Source loader for generated modules, with no bytecode cache.

    ``__pycache__`` validates a ``.pyc`` by the source's mtime in whole
    seconds and its size, so a same-size rewrite within one second would
    load the old module; code looked up by the bytes on disk cannot go
    stale.
    """

    def get_code(self, fullname: str) -> CodeType:
        path = self.get_filename(fullname)
        return _compile(self.get_data(path), path)

    def exec_module(self, module: ModuleType) -> None:
        name = module.__name__
        _loaded.setdefault(name.partition(".")[0], set()).add(name)
        super().exec_module(module)


#: top-level package name -> the modules :class:`_GeneratedLoader` loaded
#: for it, which a re-import of the package evicts from ``sys.modules``
_loaded: dict[str, set[str]] = {}


def _discard(out_dir: str) -> None:
    """Forget and remove an application's temporary output directory."""
    sys.path_importer_cache.pop(out_dir, None)
    shutil.rmtree(out_dir, ignore_errors=True)


class ComposedApplication:
    """Handle to one composed (built) application."""

    def __init__(self, tree: ComponentTree, out_dir: Path) -> None:
        self.tree = tree
        self.out_dir = Path(out_dir)
        self._package: ModuleType | None = None

    def own_out_dir(self) -> None:
        """Take ownership of ``out_dir``, a temporary directory made for
        this application alone: when the application is collected, the
        directory and the import finder installed for it go away."""
        weakref.finalize(self, _discard, str(self.out_dir))

    @property
    def name(self) -> str:
        return self.tree.main.name

    @property
    def package_name(self) -> str:
        """Unique import name for the generated package."""
        return f"peppher_app_{self.name}"

    def artefact_files(self) -> list[str]:
        """Relative paths of every generated artefact."""
        return sorted(
            str(p.relative_to(self.out_dir))
            for p in self.out_dir.rglob("*")
            if p.is_file()
        )

    def import_generated(self) -> ModuleType:
        """Import the generated package (idempotent)."""
        if self._package is not None:
            return self._package
        out = str(self.out_dir)
        init_path = os.path.join(out, "__init__.py")
        if not os.path.exists(init_path):
            raise CompositionError(
                f"application {self.name!r}: no generated package at {out}"
            )
        # a previous compose may have claimed the name; evict stale
        # modules so the fresh artefacts load
        name = self.package_name
        for mod in _loaded.pop(name, ()):
            sys.modules.pop(mod, None)
        # submodules resolve through the package's __path__: route them
        # to the same loader
        sys.path_importer_cache[out] = importlib.machinery.FileFinder(
            out, (_GeneratedLoader, [".py"])
        )
        spec = importlib.util.spec_from_file_location(
            name,
            init_path,
            loader=_GeneratedLoader(name, init_path),
            submodule_search_locations=[out],
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self._package = package
        return package

    @property
    def peppher(self) -> ModuleType:
        """The generated ``peppher`` module (single linking point)."""
        self.import_generated()
        return importlib.import_module(f"{self.package_name}.peppher")

    def initialize(self, **options):
        """``PEPPHER_INITIALIZE()`` on the generated application."""
        return self.peppher.PEPPHER_INITIALIZE(**options)

    def shutdown(self) -> float:
        """``PEPPHER_SHUTDOWN()`` on the generated application."""
        return self.peppher.PEPPHER_SHUTDOWN()

    def entry(self, component: str):
        """The generated entry-wrapper for one component."""
        module = self.peppher
        try:
            return getattr(module, component)
        except AttributeError:
            raise CompositionError(
                f"application {self.name!r} has no component {component!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComposedApplication {self.name!r} at {self.out_dir}>"
