"""ComposedApplication behaviour and error paths."""

import dataclasses
import gc
import importlib
import os
import shutil
import sys
import tempfile
import types

import pytest

from repro.apps import mains, spmv
from repro.components import MainDescriptor, Repository, xml_io
from repro.composer import ComposedApplication, Composer, Recipe, application
from repro.errors import CompositionError


def _compose(out_dir, recipe=None):
    repo = Repository()
    spmv.register(repo)
    main = MainDescriptor(name="spmv_app", components=("spmv",))
    repo.add_main(main)
    return Composer(repo, recipe or Recipe()).compose(main, out_dir)


#: An mtime no write during a test can produce (2001-09-09).
_OLD_NS = 1_000_000_000 * 10**9


def _age(out_dir):
    """Set every file's mtime under out_dir to :data:`_OLD_NS`, so any
    later write moves it even within one tick of the file-system clock."""
    for p in out_dir.rglob("*"):
        if p.is_file():
            os.utime(p, ns=(_OLD_NS, _OLD_NS))


def _snapshot(out_dir):
    """Relative path -> (mtime in ns, bytes) of every file under out_dir."""
    return {
        str(p.relative_to(out_dir)): (p.stat().st_mtime_ns, p.read_bytes())
        for p in out_dir.rglob("*")
        if p.is_file()
    }


@pytest.fixture
def app(tmp_path):
    return _compose(tmp_path)


def test_artefact_listing(app):
    files = app.artefact_files()
    assert "peppher.py" in files and "Makefile" in files


def test_import_is_idempotent(app):
    assert app.import_generated() is app.import_generated()


def test_entry_lookup(app):
    assert callable(app.entry("spmv"))
    with pytest.raises(CompositionError):
        app.entry("not_a_component")


def test_missing_package_rejected(app, tmp_path):
    ghost = ComposedApplication(app.tree, tmp_path / "nowhere")
    with pytest.raises(CompositionError):
        ghost.import_generated()


def test_recompose_evicts_stale_modules(tmp_path, app):
    """Composing the same app into a new directory, or again into the
    same one, must load the fresh artefacts, not the cached modules of
    the first compose."""
    narrowed = Recipe(disable_impls=("spmv_cpu",))
    app.import_generated()
    app2 = _compose(tmp_path / "second", narrowed)
    app2.import_generated()
    registry = importlib.import_module(f"{app2.package_name}._registry")
    names = {v.name for v in registry.CODELETS["spmv"].variants}
    assert "spmv_cpu" not in names  # the fresh, narrowed artefacts loaded

    # the same directory: only the files whose bytes change are rewritten,
    # and the dropped implementation's descriptor goes away
    _age(tmp_path)
    before = _snapshot(tmp_path)
    app3 = _compose(tmp_path, narrowed)
    after = _snapshot(tmp_path)
    assert set(before) - set(after) == {"descriptors/spmv/cpu_serial/spmv_cpu.xml"}
    rewritten = {f for f in after if after[f][0] != before[f][0]}
    changed = {f for f in after if after[f][1] != before[f][1]}
    assert rewritten == changed and "spmv_stub.py" in changed
    assert "peppher.py" not in rewritten
    app3.import_generated()
    registry = importlib.import_module(f"{app3.package_name}._registry")
    names = {v.name for v in registry.CODELETS["spmv"].variants}
    assert "spmv_cpu" not in names and names


def test_unchanged_recompose_rewrites_nothing(tmp_path, app):
    app.import_generated()
    _age(tmp_path)
    before = _snapshot(tmp_path)
    again = _compose(tmp_path)
    assert _snapshot(tmp_path) == before  # every st_mtime_ns unchanged
    assert again.import_generated() is not app.import_generated()


def test_same_size_rewrite_loads_fresh_source(app, monkeypatch):
    """A module rewritten with the same size and mtime must not import
    from a stale bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    probe = app.out_dir / "probe.py"
    probe.write_text("VALUE = 'AAAA'\n")
    app.import_generated()
    assert importlib.import_module(f"{app.package_name}.probe").VALUE == "AAAA"
    stat = probe.stat()
    probe.write_text("VALUE = 'BBBB'\n")
    os.utime(probe, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    fresh = ComposedApplication(app.tree, app.out_dir)
    fresh.import_generated()
    assert importlib.import_module(f"{fresh.package_name}.probe").VALUE == "BBBB"


def test_import_writes_no_bytecode(app, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    files = app.artefact_files()
    app.import_generated()
    assert callable(app.entry("spmv"))
    assert not list(app.out_dir.rglob("__pycache__"))
    assert app.artefact_files() == files


def test_initialize_shutdown_roundtrip(app):
    rt = app.initialize(seed=5)
    assert rt.machine.name == "xeon-e5520+c2050"
    assert app.shutdown() >= 0.0
    # shutdown clears the holder: a fresh initialize works
    rt2 = app.initialize()
    app.shutdown()


def _compiles():
    """Modules compiled so far by the generated-code loader's memo."""
    return application._compile.cache_info().misses


def _memo_misses():
    """(descriptors rendered, descriptor texts parsed, modules compiled)."""
    return (
        xml_io._render.cache_info().misses,
        xml_io._parse.cache_info().misses,
        _compiles(),
    )


def test_recompose_compiles_only_changed_modules(tmp_path):
    for name in mains.TOOL_MAINS:
        mains.compose_app(name, out_dir=tmp_path / name).import_generated()
    before = _compiles()
    for name in mains.TOOL_MAINS:
        mains.compose_app(name, out_dir=tmp_path / name).import_generated()
    assert _compiles() == before

    app = mains.compose_app("spmv", out_dir=tmp_path / "spmv")
    stub = app.out_dir / "spmv_stub.py"
    stub.write_text(stub.read_text() + "# edited\n")
    ComposedApplication(app.tree, app.out_dir).import_generated()
    assert _compiles() == before + 1

    # the same bytes at another path compile again: code carries its file
    copy = shutil.copytree(app.out_dir, tmp_path / "copy")
    package = ComposedApplication(app.tree, copy).import_generated()
    assert _compiles() == before + 1 + len(list(copy.glob("*.py")))
    entry = package.PEPPHER_INITIALIZE
    assert entry.__code__.co_filename == str(copy / "peppher.py")


def test_warm_recompose_renders_parses_and_compiles_nothing(tmp_path):
    for name in mains.TOOL_MAINS:
        mains.compose_app(name, out_dir=tmp_path / name).import_generated()
    before = _memo_misses()
    for name in mains.TOOL_MAINS:
        mains.compose_app(name, out_dir=tmp_path / name).import_generated()
    assert _memo_misses() == before

    # one changed field: exactly that descriptor renders and parses again;
    # a compile command reaches no generated module, so nothing compiles
    edited = dataclasses.replace(spmv.IMPLEMENTATIONS[0], compile_cmd="cc -c $<")
    repo = Repository()
    repo.add_interface(spmv.INTERFACE)
    for impl in spmv.IMPLEMENTATIONS:
        repo.add_implementation(edited if impl is spmv.IMPLEMENTATIONS[0] else impl)
    main = MainDescriptor(name="spmv", components=("spmv",))
    repo.add_main(main)
    Composer(repo, Recipe()).compose(main, tmp_path / "spmv").import_generated()
    rendered, parsed, compiled = _memo_misses()
    assert (rendered, parsed, compiled) == (before[0] + 1, before[1] + 1, before[2])
    comp_dir = tmp_path / "spmv" / "descriptors" / "spmv"
    text = (comp_dir / edited.platform / f"{edited.name}.xml").read_text()
    assert 'compileCmd="cc -c $&lt;"' in text


def test_reimport_evicts_only_the_loaded_package_modules(tmp_path):
    app = mains.compose_app("spmv", out_dir=tmp_path)
    (tmp_path / "probe.py").write_text("VALUE = 1\n")
    app.import_generated()
    probe = importlib.import_module(f"{app.package_name}.probe")
    # a package whose name merely extends this one's is left alone
    neighbour = types.ModuleType(f"{app.package_name}2")
    sys.modules[neighbour.__name__] = neighbour
    sys.modules[f"{neighbour.__name__}.stub"] = types.ModuleType("stub")
    try:
        again = mains.compose_app("spmv", out_dir=tmp_path)
        package = again.import_generated()
        assert sys.modules[neighbour.__name__] is neighbour
        assert f"{neighbour.__name__}.stub" in sys.modules
        assert f"{app.package_name}.probe" not in sys.modules
        assert importlib.import_module(f"{app.package_name}.probe") is not probe
        assert sys.modules[app.package_name] is package
    finally:
        del sys.modules[neighbour.__name__], sys.modules[f"{neighbour.__name__}.stub"]


def test_temporary_app_directories_are_removed(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out_dirs = []
    for name in ("spmv", "sgemm", "bfs"):
        app = mains.compose_app(name)
        app.import_generated()
        out_dirs.append(str(app.out_dir))
        assert out_dirs[-1] in sys.path_importer_cache
    del app
    gc.collect()
    assert not list(tmp_path.iterdir())
    assert not set(out_dirs) & set(sys.path_importer_cache)

    # a compose that fails removes its directory at once
    with pytest.raises(CompositionError):
        mains.compose_app("spmv", recipe=Recipe(enable_only=("no_such_impl",)))
    assert not list(tmp_path.iterdir())
