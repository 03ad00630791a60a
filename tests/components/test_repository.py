"""Repositories: registration, validation, disk layout."""

import pytest

from repro.components import (
    ImplementationDescriptor,
    InterfaceDescriptor,
    MainDescriptor,
    ParamDecl,
    Repository,
)
from repro.errors import RepositoryError


def _iface(name="spmv"):
    return InterfaceDescriptor(name, params=(ParamDecl("n", "int"),))


def _impl(name="spmv_cpu", provides="spmv", platform="cpu_serial", requires=()):
    return ImplementationDescriptor(
        name=name, provides=provides, platform=platform, requires=requires,
        kernel_ref="m:k", cost_ref="m:c",
    )


def test_standard_platforms_preloaded():
    repo = Repository()
    assert repo.platform("cuda").arch.value == "cuda"
    assert len(Repository(with_standard_platforms=False).platforms) == 0


def test_duplicate_interface_rejected():
    repo = Repository()
    repo.add_interface(_iface())
    with pytest.raises(RepositoryError):
        repo.add_interface(_iface())


def test_duplicate_implementation_rejected():
    repo = Repository()
    repo.add_interface(_iface())
    repo.add_implementation(_impl())
    with pytest.raises(RepositoryError):
        repo.add_implementation(_impl())


def test_duplicate_platform_and_main_rejected():
    repo = Repository()
    from repro.components import standard_platforms

    with pytest.raises(RepositoryError):
        repo.add_platform(standard_platforms()[0])
    main = MainDescriptor(name="app", components=("spmv",))
    repo.add_main(main)
    with pytest.raises(RepositoryError):
        repo.add_main(main)


def test_lookup_errors():
    repo = Repository()
    with pytest.raises(RepositoryError):
        repo.interface("missing")
    with pytest.raises(RepositoryError):
        repo.implementations_of("missing")
    with pytest.raises(RepositoryError):
        repo.implementation("missing")
    with pytest.raises(RepositoryError):
        repo.platform("missing")
    with pytest.raises(RepositoryError):
        repo.main("missing")


def test_implementation_lookup_by_name():
    repo = Repository()
    repo.add_interface(_iface())
    repo.add_implementation(_impl())
    assert repo.implementation("spmv_cpu").provides == "spmv"


def test_validate_flags_problems():
    repo = Repository()
    repo.add_interface(_iface())
    repo.add_implementation(
        _impl(name="x", platform="no_such_platform", requires=("ghost",))
    )
    repo.add_main(MainDescriptor(name="app", components=("phantom",)))
    problems = "\n".join(repo.validate())
    assert "no_such_platform" in problems
    assert "ghost" in problems
    assert "phantom" in problems


def test_validate_clean_repo():
    repo = Repository()
    repo.add_interface(_iface())
    repo.add_implementation(_impl())
    assert repo.validate() == []


def test_save_scan_roundtrip(tmp_path):
    repo = Repository()
    repo.add_interface(_iface())
    repo.add_implementation(_impl())
    repo.add_implementation(_impl(name="spmv_cuda", platform="cuda"))
    repo.add_main(MainDescriptor(name="app", components=("spmv",)))
    repo.save_to(tmp_path)

    # the paper's directory structure
    assert (tmp_path / "spmv" / "interface.xml").exists()
    assert (tmp_path / "spmv" / "cpu_serial" / "spmv_cpu.xml").exists()
    assert (tmp_path / "spmv" / "cuda" / "spmv_cuda.xml").exists()
    assert (tmp_path / "platforms" / "cuda.xml").exists()
    assert (tmp_path / "app.xml").exists()

    loaded = Repository.scan(tmp_path)
    assert loaded.interface_names() == ["spmv"]
    assert {i.name for i in loaded.implementations_of("spmv")} == {
        "spmv_cpu",
        "spmv_cuda",
    }
    assert loaded.main("app").components == ("spmv",)
    assert loaded.validate() == []


def test_scan_missing_directory():
    with pytest.raises(RepositoryError):
        Repository.scan("/nonexistent/path")


def test_scan_skips_directories_named_xml(tmp_path):
    repo = Repository()
    repo.add_interface(_iface())
    repo.add_implementation(_impl())
    repo.save_to(tmp_path)
    (tmp_path / "notes.xml").mkdir()
    (tmp_path / "spmv" / "cpu_serial" / "old.xml").mkdir()

    loaded = Repository.scan(tmp_path)
    assert loaded.interface_names() == ["spmv"]
    assert [i.name for i in loaded.implementations_of("spmv")] == ["spmv_cpu"]
