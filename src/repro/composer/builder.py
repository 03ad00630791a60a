"""The composition tool's build orchestration.

Implements the per-interface processing loop of paper section III:

1. read descriptors, build the component-tree IR (expanding generic
   components along the way);
2. apply user-guided static narrowing and — when prediction metadata is
   sufficient and requested — static composition with dispatch tables;
3. generate composition code: one wrapper (stub) file per component, the
   ``peppher`` single-linking-point module and the registry;
4. "call the native compilers" — emit the Makefile and build manifest
   recording every compile/link command — and link everything into a
   :class:`~repro.composer.application.ComposedApplication`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.components.main_desc import MainDescriptor
from repro.components.repository import Repository
from repro.components.xml_io import descriptor_to_string, load_descriptor, xml_paths
from repro.composer.application import ComposedApplication
from repro.composer.codegen.header import (
    generate_init_module,
    generate_peppher_module,
    generate_registry_module,
)
from repro.composer.codegen.makefile import generate_build_manifest, generate_makefile
from repro.composer.codegen.stubs import generate_stub_module, stub_module_name
from repro.composer.explorer import build_ir
from repro.composer.ir import ComponentTree
from repro.composer.narrowing import apply_narrowing
from repro.composer.recipe import Recipe
from repro.composer.static_comp import apply_static_composition
from repro.errors import CompositionError
from repro.hw.presets import by_name


def _deploy(path: str, text: str) -> None:
    """Write ``text`` to ``path`` unless the file already holds its bytes.

    Leaving an unchanged artefact alone keeps its mtime true for ``make``
    and makes a recompose into the same directory cost only what changed.
    """
    data = text.encode()
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
    else:
        try:
            # one byte more than ``data``: a longer file reads unequal
            if os.read(fd, len(data) + 1) == data:
                return
        finally:
            os.close(fd)
    with open(path, "wb") as f:
        f.write(data)


class Composer:
    """The PEPPHER composition tool."""

    def __init__(self, repo: Repository, recipe: Recipe | None = None) -> None:
        self.repo = repo
        self.recipe = recipe or Recipe()

    # -- pipeline phases (usable separately, e.g. by tests) -------------------

    def build_ir(self, main: MainDescriptor) -> ComponentTree:
        """Phase 1: descriptors -> component-tree IR."""
        problems = self.repo.validate()
        if problems:
            raise CompositionError(
                "repository is inconsistent:\n  " + "\n  ".join(problems)
            )
        return build_ir(self.repo, main, self.recipe)

    def process(self, tree: ComponentTree) -> ComponentTree:
        """Phase 2: composition processing on the IR."""
        apply_narrowing(tree)
        if self.recipe.static_dispatch:
            machine = by_name(self.recipe.platform or tree.main.target_platform)
            apply_static_composition(tree, machine)
        tree.check()
        return tree

    def generate(self, tree: ComponentTree, out_dir: str | Path) -> ComposedApplication:
        """Phase 3+4: code generation and deployment."""
        out = os.fspath(out_dir)
        component_names = tree.interface_names()
        # plain str paths, joined as the descriptor walk joins them
        artefacts: dict[str, str] = {}

        # deploy descriptors in the paper's directory structure so the
        # generated registry can reload them independently of this repo
        descriptors = os.path.join(out, "descriptors")
        for node in tree.nodes:
            comp_dir = os.path.join(descriptors, node.name)
            artefacts[os.path.join(comp_dir, "interface.xml")] = descriptor_to_string(
                node.interface
            )
            for impl in node.implementations:
                path = os.path.join(comp_dir, impl.platform, f"{impl.name}.xml")
                artefacts[path] = descriptor_to_string(impl)

        # wrapper (stub) files: one per component; fully static
        # composition embeds the compacted dispatch function
        for node in tree.nodes:
            dispatch = None
            if (
                self.recipe.static_dispatch_codegen
                and node.static_choice is not None
            ):
                dispatch = node.static_choice.compact()
            artefacts[os.path.join(out, f"{stub_module_name(node.name)}.py")] = (
                generate_stub_module(
                    node.interface, node.implementations, dispatch=dispatch
                )
            )

        # static narrowing the registry must re-apply when reloading
        narrowing: dict[str, list[str]] = {}
        for node in tree.nodes:
            if node.static_choice is not None:
                narrowing[node.name] = sorted(node.static_choice.winners())

        artefacts[os.path.join(out, "_registry.py")] = generate_registry_module(
            tree.main.name, component_names, narrowing
        )
        artefacts[os.path.join(out, "peppher.py")] = generate_peppher_module(
            tree.main, component_names
        )
        artefacts[os.path.join(out, "__init__.py")] = generate_init_module(
            tree.main.name
        )
        artefacts[os.path.join(out, "Makefile")] = generate_makefile(
            tree, self.repo.platforms
        )
        artefacts[os.path.join(out, "build_manifest.json")] = generate_build_manifest(
            tree, self.repo.platforms
        )

        for path, text in artefacts.items():
            _deploy(path, text)
        # the registry reloads every descriptor under a component's
        # directory: drop those an earlier compose left behind
        for stale in set(xml_paths(descriptors)).difference(artefacts):
            os.unlink(stale)
        return ComposedApplication(tree, out)

    # -- the one-call front door ------------------------------------------------

    def compose(
        self, main: MainDescriptor | str | Path, out_dir: str | Path
    ) -> ComposedApplication:
        """``compose main.xml`` — the full pipeline.

        ``main`` may be a descriptor object or a path to a ``main.xml``.
        """
        if isinstance(main, (str, Path)):
            desc = load_descriptor(main)
            if not isinstance(desc, MainDescriptor):
                raise CompositionError(
                    f"{main}: expected a main-module descriptor"
                )
            main = desc
        tree = self.build_ir(main)
        self.process(tree)
        return self.generate(tree, out_dir)
