"""XML round-trips for every descriptor kind."""

import re

import pytest

from repro.components import (
    ContextParamDecl,
    ExpressionConstraint,
    ImplementationDescriptor,
    InterfaceDescriptor,
    MainDescriptor,
    ParamDecl,
    PlatformDescriptor,
    RangeConstraint,
    ResourceRequirement,
    TunableParam,
    descriptor_to_string,
    load_descriptor,
    parse_descriptor_string,
    save_descriptor,
    standard_platforms,
)
from repro.errors import DescriptorError
from repro.runtime.access import AccessMode
from repro.runtime.archs import Arch


def _interface():
    return InterfaceDescriptor(
        name="sort",
        params=(
            ParamDecl("data", "T*", AccessMode.RW),
            ParamDecl("n", "int", AccessMode.R),
        ),
        type_params=("T",),
        performance_metrics=("avg_exec_time", "worst_case"),
        context_params=(ContextParamDecl("n", "int", minimum=1, maximum=1e6),),
    )


def _implementation():
    return ImplementationDescriptor(
        name="sort_cuda",
        provides="sort",
        platform="cuda",
        requires=("helper", "other"),
        sources=("sort_cuda.cu", "common.h"),
        compile_cmd="nvcc -O3 -c $< -o $@",
        kernel_ref="mod:kernel",
        cost_ref="mod:cost",
        prediction_ref="mod:pred",
        resources=(ResourceRequirement("gpu_memory_mb", 64, 4096),),
        tunables=(TunableParam("tile", values=(8, 16), default=16),),
        constraints=(
            RangeConstraint("n", minimum=1.0),  # bounds round-trip as floats
            ExpressionConstraint("n / 2 >= 1"),
        ),
    )


def test_interface_roundtrip():
    iface = _interface()
    assert parse_descriptor_string(descriptor_to_string(iface)) == iface


def test_implementation_roundtrip():
    impl = _implementation()
    back = parse_descriptor_string(descriptor_to_string(impl))
    # constraints compare by description (ExpressionConstraint lacks __eq__)
    assert back.name == impl.name
    assert back.requires == impl.requires
    assert back.sources == impl.sources
    assert back.compile_cmd == impl.compile_cmd
    assert back.kernel_ref == impl.kernel_ref
    assert back.resources == impl.resources
    assert back.tunables == impl.tunables
    assert [c.describe() for c in back.constraints] == [
        c.describe() for c in impl.constraints
    ]


def test_platform_roundtrip():
    for platform in standard_platforms():
        assert parse_descriptor_string(descriptor_to_string(platform)) == platform


def test_main_roundtrip():
    main = MainDescriptor(
        name="app",
        sources=("main.cpp", "util.cpp"),
        target_platform="c1060",
        optimization_goal="min_energy",
        components=("sort", "spmv"),
        scheduler="eager",
        use_history_models=False,
        disable_impls=("sort_cpu",),
        link_cmd="g++ -o {app} {objects}",
    )
    assert parse_descriptor_string(descriptor_to_string(main)) == main


def test_platform_arch_parsing():
    p = PlatformDescriptor(name="x", language="C", arch=Arch.OPENCL)
    assert parse_descriptor_string(descriptor_to_string(p)).arch is Arch.OPENCL


def test_save_and_load_file(tmp_path):
    path = save_descriptor(_interface(), tmp_path / "deep" / "interface.xml")
    assert path.exists()
    assert load_descriptor(path) == _interface()


def test_load_dispatches_on_root_tag(tmp_path):
    kinds = {
        "i.xml": _interface(),
        "impl.xml": _implementation(),
        "p.xml": standard_platforms()[0],
        "m.xml": MainDescriptor(name="a", components=("sort",)),
    }
    for fname, desc in kinds.items():
        save_descriptor(desc, tmp_path / fname)
        assert type(load_descriptor(tmp_path / fname)) is type(desc)


def test_malformed_xml_rejected(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<peppherInterface name='x'")
    with pytest.raises(DescriptorError, match=f"^{re.escape(str(bad))}: malformed XML"):
        load_descriptor(bad)


def test_unknown_root_tag_in_file_names_the_file(tmp_path):
    # the same bytes in two files: each error names its own file
    for name in ("a.xml", "b.xml"):
        path = tmp_path / name
        path.write_text("<somethingElse/>")
        with pytest.raises(DescriptorError, match=f"^{re.escape(str(path))}: unknown"):
            load_descriptor(path)


@pytest.mark.parametrize("make", [_interface, _implementation])
def test_identical_files_load_equal_descriptors(tmp_path, make):
    text = descriptor_to_string(make())
    first, second = tmp_path / "first.xml", tmp_path / "second.xml"
    first.write_text(text)
    second.write_text(text)
    assert load_descriptor(first) == load_descriptor(second)


def test_load_reads_the_file_each_time(tmp_path):
    path = save_descriptor(_interface(), tmp_path / "i.xml")
    assert load_descriptor(path).name == "sort"
    save_descriptor(MainDescriptor(name="a", components=("sort",)), path)
    assert isinstance(load_descriptor(path), MainDescriptor)


def test_unknown_root_tag_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor_string("<somethingElse/>")


def test_interface_missing_function_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor_string('<peppherInterface name="x"/>')


def test_descriptor_to_string_rejects_non_descriptor():
    with pytest.raises(DescriptorError):
        descriptor_to_string({"not": "a descriptor"})


def test_xml_is_pretty_printed():
    text = descriptor_to_string(_interface())
    assert text.count("\n") > 5  # indented, one element per line


def test_equal_descriptors_keep_their_own_text():
    """Equal descriptors can render differently; the render memo keys by
    identity, so each gets its own text, even back to back."""
    params = (ParamDecl("n", "int"),)
    ints = InterfaceDescriptor(
        "f", params, context_params=(ContextParamDecl("n", "int", 1, 8),)
    )
    floats = InterfaceDescriptor(
        "f", params, context_params=(ContextParamDecl("n", "int", 1.0, 8.0),)
    )
    assert ints == floats and hash(ints) == hash(floats)
    for _ in range(2):
        assert 'min="1" max="8"' in descriptor_to_string(ints)
        assert 'min="1.0" max="8.0"' in descriptor_to_string(floats)
