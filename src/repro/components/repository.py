"""Component repositories.

The PEPPHER framework keeps track of implementation variants by storing
their descriptors in repositories that the composition tool explores.
The on-disk layout mirrors the paper (section IV-C): one directory per
component interface, with implementations organized by platform type in
subdirectories, plus a global registry of interfaces, implementations and
platforms that helps the tool navigate the structure::

    repo/
      platforms/cuda.xml ...
      spmv/interface.xml
      spmv/cuda/spmv_cuda.xml
      spmv/cpu_serial/spmv_cpu.xml
      main.xml                      (application main descriptor)
"""

from __future__ import annotations

from pathlib import Path

from repro.components.implementation import ImplementationDescriptor
from repro.components.interface import InterfaceDescriptor
from repro.components.main_desc import MainDescriptor
from repro.components.platform_desc import PlatformDescriptor, standard_platforms
from repro.components.xml_io import load_descriptor, save_descriptor, xml_files
from repro.errors import RepositoryError


class Repository:
    """In-memory registry of interfaces, implementations and platforms."""

    def __init__(self, with_standard_platforms: bool = True) -> None:
        self._interfaces: dict[str, InterfaceDescriptor] = {}
        self._implementations: dict[str, list[ImplementationDescriptor]] = {}
        self._platforms: dict[str, PlatformDescriptor] = {}
        self._mains: dict[str, MainDescriptor] = {}
        if with_standard_platforms:
            for p in standard_platforms():
                self.add_platform(p)

    # -- registration ---------------------------------------------------------

    def add_interface(self, desc: InterfaceDescriptor) -> None:
        if desc.name in self._interfaces:
            raise RepositoryError(f"interface {desc.name!r} already registered")
        self._interfaces[desc.name] = desc
        self._implementations.setdefault(desc.name, [])

    def add_implementation(self, desc: ImplementationDescriptor) -> None:
        impls = self._implementations.setdefault(desc.provides, [])
        if any(i.name == desc.name for i in impls):
            raise RepositoryError(
                f"implementation {desc.name!r} already registered for "
                f"interface {desc.provides!r}"
            )
        impls.append(desc)

    def add_platform(self, desc: PlatformDescriptor) -> None:
        if desc.name in self._platforms:
            raise RepositoryError(f"platform {desc.name!r} already registered")
        self._platforms[desc.name] = desc

    def add_main(self, desc: MainDescriptor) -> None:
        if desc.name in self._mains:
            raise RepositoryError(f"main descriptor {desc.name!r} already registered")
        self._mains[desc.name] = desc

    # -- lookup ------------------------------------------------------------------

    def interface(self, name: str) -> InterfaceDescriptor:
        try:
            return self._interfaces[name]
        except KeyError:
            raise RepositoryError(f"unknown interface {name!r}") from None

    def has_interface(self, name: str) -> bool:
        return name in self._interfaces

    def implementations_of(self, interface_name: str) -> list[ImplementationDescriptor]:
        if interface_name not in self._interfaces:
            raise RepositoryError(f"unknown interface {interface_name!r}")
        return list(self._implementations.get(interface_name, []))

    def implementation(self, name: str) -> ImplementationDescriptor:
        for impls in self._implementations.values():
            for impl in impls:
                if impl.name == name:
                    return impl
        raise RepositoryError(f"unknown implementation {name!r}")

    def platform(self, name: str) -> PlatformDescriptor:
        try:
            return self._platforms[name]
        except KeyError:
            raise RepositoryError(f"unknown platform {name!r}") from None

    @property
    def platforms(self) -> dict[str, PlatformDescriptor]:
        return dict(self._platforms)

    def main(self, name: str) -> MainDescriptor:
        try:
            return self._mains[name]
        except KeyError:
            raise RepositoryError(f"unknown main descriptor {name!r}") from None

    def interface_names(self) -> list[str]:
        return sorted(self._interfaces)

    def main_names(self) -> list[str]:
        return sorted(self._mains)

    # -- integrity -----------------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of consistency problems (empty = healthy)."""
        problems: list[str] = []
        for iface, impls in self._implementations.items():
            if iface not in self._interfaces:
                problems.append(
                    f"implementations {[i.name for i in impls]} provide "
                    f"undeclared interface {iface!r}"
                )
            for impl in impls:
                if impl.platform not in self._platforms:
                    problems.append(
                        f"implementation {impl.name!r} references unknown "
                        f"platform {impl.platform!r}"
                    )
                for req in impl.requires:
                    if req not in self._interfaces:
                        problems.append(
                            f"implementation {impl.name!r} requires unknown "
                            f"interface {req!r}"
                        )
        for main in self._mains.values():
            for comp in main.components:
                if comp not in self._interfaces:
                    problems.append(
                        f"main {main.name!r} uses unknown interface {comp!r}"
                    )
        return problems

    # -- on-disk layout ---------------------------------------------------------------

    def save_to(self, root: str | Path) -> Path:
        """Write the repository in the paper's directory structure."""
        root = Path(root)
        platforms_dir = root / "platforms"
        for p in self._platforms.values():
            save_descriptor(p, platforms_dir / f"{p.name}.xml")
        for iface in self._interfaces.values():
            comp_dir = root / iface.name
            save_descriptor(iface, comp_dir / "interface.xml")
            for impl in self._implementations.get(iface.name, []):
                save_descriptor(impl, comp_dir / impl.platform / f"{impl.name}.xml")
        for main in self._mains.values():
            save_descriptor(main, root / f"{main.name}.xml")
        return root

    @classmethod
    def scan(cls, root: str | Path, with_standard_platforms: bool = False) -> "Repository":
        """Load a repository by scanning ``root`` recursively for XML
        descriptors, classifying each by its root tag."""
        root = Path(root)
        if not root.is_dir():
            raise RepositoryError(f"repository root {root} is not a directory")
        repo = cls(with_standard_platforms=with_standard_platforms)
        interfaces, impls, platforms, mains = [], [], [], []
        for path in xml_files(root):
            desc = load_descriptor(path)
            if isinstance(desc, InterfaceDescriptor):
                interfaces.append(desc)
            elif isinstance(desc, ImplementationDescriptor):
                impls.append(desc)
            elif isinstance(desc, PlatformDescriptor):
                platforms.append(desc)
            elif isinstance(desc, MainDescriptor):
                mains.append(desc)
        # registration order: platforms and interfaces before impls/mains
        for p in platforms:
            if p.name not in repo._platforms:
                repo.add_platform(p)
        for i in interfaces:
            repo.add_interface(i)
        for im in impls:
            repo.add_implementation(im)
        for m in mains:
            repo.add_main(m)
        return repo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_impls = sum(len(v) for v in self._implementations.values())
        return (
            f"<Repository {len(self._interfaces)} interfaces, {n_impls} "
            f"implementations, {len(self._platforms)} platforms, "
            f"{len(self._mains)} mains>"
        )
