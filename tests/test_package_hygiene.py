"""Package hygiene: public modules are importable and documented."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} is missing a module docstring"
    )


def test_package_version():
    assert repro.__version__


#: the top-level package's public names (resolved on first access)
REPRO_ALL = [
    "ComposedApplication",
    "Composer",
    "EngineEvents",
    "MachineDescription",
    "Matrix",
    "MainDescriptor",
    "MetricsRegistry",
    "MetricsSuite",
    "PerfModelStore",
    "Recipe",
    "Repository",
    "Runtime",
    "Scalar",
    "Session",
    "Vector",
    "__version__",
    "by_name",
    "check",
    "machine",
    "platform_c1060",
    "platform_c2050",
    "serve",
]

#: packages whose public names resolve on first access (PEP 562)
LAZY_PACKAGES = ("repro", "repro.serve", "repro.cluster", "repro.check", "repro.composer")


def test_all_exports_resolve():
    assert repro.__all__ == REPRO_ALL
    for pkg_name in (
        *LAZY_PACKAGES,
        "repro.hw",
        "repro.runtime",
        "repro.containers",
        "repro.components",
        "repro.workloads",
        "repro.metrics",
        "repro.report",
    ):
        pkg = importlib.import_module(pkg_name)
        assert set(pkg.__all__) <= set(dir(pkg)), pkg_name
        for name in pkg.__all__:
            assert getattr(pkg, name, None) is not None, f"{pkg_name}.{name}"
        namespace = {}
        exec(f"from {pkg_name} import *", namespace)
        assert set(pkg.__all__) <= set(namespace), pkg_name


def test_headline_names_are_the_subsystem_objects():
    from repro import Composer, Runtime, Session, check, serve

    assert Runtime is importlib.import_module("repro.runtime").Runtime
    assert Session is importlib.import_module("repro.session").Session
    assert Composer is importlib.import_module("repro.composer.builder").Composer
    assert check is importlib.import_module("repro.check")
    assert serve is importlib.import_module("repro.serve")


@pytest.mark.parametrize("pkg_name", LAZY_PACKAGES)
def test_unknown_attribute_raises(pkg_name):
    pkg = importlib.import_module(pkg_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_expected_subsystem_count():
    """DESIGN.md's inventory: every subsystem package exists."""
    top = {name.split(".")[1] for name in MODULES if name.count(".") >= 1}
    assert {
        "hw",
        "runtime",
        "containers",
        "components",
        "composer",
        "apps",
        "direct",
        "workloads",
        "experiments",
        "metrics",
        "report",
        "errors",
    } <= top
