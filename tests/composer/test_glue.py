"""The PEPPHER support library (glue) behind generated stubs."""

import numpy as np
import pytest

from repro.apps import spmv
from repro.components import (
    ContextParamDecl,
    InterfaceDescriptor,
    ParamDecl,
    Repository,
)
from repro.composer.glue import (
    RuntimeHolder,
    as_operand,
    invoke_entry,
    load_component_dir,
    lower_component,
    make_backend_adapter,
)
from repro.containers import Vector
from repro.errors import CompositionError, RuntimeSystemError
from repro.runtime import Runtime
from repro.runtime.access import AccessMode
from repro.runtime.archs import Arch
from repro.runtime.codelet import Codelet, ImplVariant
from repro.hw.presets import platform_c2050


def test_runtime_holder_lifecycle():
    holder = RuntimeHolder()
    with pytest.raises(RuntimeSystemError):
        holder.get()
    rt = Runtime(platform_c2050(), scheduler="eager")
    holder.set(rt)
    assert holder.get() is rt
    with pytest.raises(RuntimeSystemError):
        holder.set(rt)  # double initialize
    assert holder.clear() is rt
    assert holder.clear() is None
    rt.shutdown()


def test_backend_adapter_reorders_mixed_signature():
    """The adapter maps (ctx, buffers..., scalars...) to the C order."""
    iface = InterfaceDescriptor(
        "f",
        params=(
            ParamDecl("n", "int"),  # scalar first in C order
            ParamDecl("data", "float*", AccessMode.RW),
            ParamDecl("scale", "float"),
            ParamDecl("out", "float*", AccessMode.W),
        ),
    )
    seen = {}

    def kernel(n, data, scale, out):
        seen.update(n=n, data=data, scale=scale, out=out)

    adapter = make_backend_adapter(iface, kernel)
    data, out = np.zeros(3), np.zeros(3)
    adapter({}, data, out, 7, 2.5)  # runtime order: buffers then scalars
    assert seen["n"] == 7 and seen["scale"] == 2.5
    assert seen["data"] is data and seen["out"] is out


def test_backend_adapter_scalar_count_checked():
    iface = InterfaceDescriptor(
        "f", params=(ParamDecl("x", "float*"), ParamDecl("n", "int"))
    )
    adapter = make_backend_adapter(iface, lambda x, n: None)
    with pytest.raises(RuntimeSystemError):
        adapter({}, np.zeros(1))  # missing scalar


def test_lower_component_builds_all_variants():
    cl = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS)
    assert {v.name for v in cl.variants} == {
        "spmv_cpu",
        "spmv_openmp",
        "spmv_cuda_cusp",
    }


def test_lower_component_requires_refs():
    from repro.components import ImplementationDescriptor

    bad = ImplementationDescriptor(
        name="x", provides="spmv", platform="cuda"
    )
    with pytest.raises(CompositionError):
        lower_component(spmv.INTERFACE, [bad])


def test_lower_component_with_backend_fns():
    called = []

    def custom(ctx, *args):
        called.append(args)

    cl = lower_component(
        spmv.INTERFACE,
        spmv.IMPLEMENTATIONS[:1],
        backend_fns={"spmv_cpu": custom},
    )
    assert cl.variants[0].fn is custom
    with pytest.raises(CompositionError):
        lower_component(
            spmv.INTERFACE, spmv.IMPLEMENTATIONS[:1], backend_fns={}
        )


def test_as_operand_container_passthrough(runtime):
    v = Vector.zeros(4, runtime=runtime)
    handle, temp = as_operand(runtime, v, "v")
    assert handle is v.handle and not temp


def test_as_operand_raw_array_is_temporary(runtime):
    handle, temp = as_operand(runtime, np.zeros(4, dtype=np.float32), "a")
    assert temp


def test_as_operand_rejects_other_types(runtime):
    with pytest.raises(CompositionError):
        as_operand(runtime, [1, 2, 3], "bad")


def test_invoke_entry_packs_call(runtime):
    cl = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS)
    from repro.workloads.sparse import random_csr

    mat = random_csr(64, 64, 4, seed=1)
    x = Vector(np.ones(64, dtype=np.float32), runtime=runtime)
    y = Vector.zeros(64, runtime=runtime)
    values = Vector(mat.values, runtime=runtime)
    colidxs = Vector(mat.colidxs, runtime=runtime)
    rowptr = Vector(mat.rowptr, runtime=runtime)
    task = invoke_entry(
        runtime,
        cl,
        spmv.INTERFACE,
        (values, mat.nnz, 64, 64, 0, colidxs, rowptr, x, y),
        sync=False,
    )
    assert task.ctx["nnz"] == mat.nnz
    runtime.wait_for_all()
    ref = spmv.reference(mat.values, mat.colidxs, mat.rowptr, np.ones(64, dtype=np.float32), 64)
    assert np.allclose(y.to_numpy(), ref, rtol=1e-4)


def test_invoke_entry_wrong_arity(runtime):
    cl = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS)
    with pytest.raises(CompositionError):
        invoke_entry(runtime, cl, spmv.INTERFACE, (1, 2, 3), sync=False)


def test_invoke_entry_raw_arrays_force_sync_and_flush(runtime):
    """Raw ndarray parameters: synchronous execution + copy-back (IV-D)."""
    cl = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS).restricted(
        ["spmv_cuda_cusp"]
    )
    from repro.workloads.sparse import random_csr

    mat = random_csr(64, 64, 4, seed=1)
    x = np.ones(64, dtype=np.float32)
    y = np.zeros(64, dtype=np.float32)
    task = invoke_entry(
        runtime,
        cl,
        spmv.INTERFACE,
        (mat.values, mat.nnz, 64, 64, 0, mat.colidxs, mat.rowptr, x, y),
        sync=False,  # wrapper must force sync anyway
    )
    # control only returns after completion and the result is in y
    assert runtime.now >= task.end_time
    ref = spmv.reference(mat.values, mat.colidxs, mat.rowptr, x, 64)
    assert np.allclose(y, ref, rtol=1e-4)


def test_load_component_dir_skips_directories_named_xml(tmp_path):
    repo = Repository()
    spmv.register(repo)
    repo.save_to(tmp_path)
    comp_dir = tmp_path / "spmv"
    (comp_dir / "notes.xml").mkdir()
    (comp_dir / "cuda" / "old.xml").mkdir()

    interface, impls = load_component_dir(comp_dir)
    assert interface == spmv.INTERFACE
    assert sorted(i.name for i in impls) == sorted(i.name for i in spmv.IMPLEMENTATIONS)


def test_load_component_dir_rejects_interface_xml_directory(tmp_path):
    repo = Repository()
    spmv.register(repo)
    repo.save_to(tmp_path)
    iface_path = tmp_path / "spmv" / "interface.xml"
    iface_path.unlink()
    iface_path.mkdir()
    with pytest.raises(CompositionError, match=str(iface_path)):
        load_component_dir(tmp_path / "spmv")


def _mixed_interface(context_params=()):
    return InterfaceDescriptor(
        "mixed",
        params=(
            ParamDecl("n", "int"),
            ParamDecl("data", "float*", AccessMode.RW),
            ParamDecl("alpha", "float"),
            ParamDecl("out", "float*", AccessMode.W),
            ParamDecl("offset", "int"),
        ),
        context_params=context_params,
    )


def _mixed_codelet(iface):
    def variant(arch):
        return ImplVariant(
            f"{iface.name}_{arch.value}", arch, lambda ctx, *a: None, lambda c, d: 1e-6
        )

    return Codelet(iface.name, [variant(Arch.CPU), variant(Arch.CUDA)])


@pytest.mark.parametrize(
    "declared, ctx",
    [
        ((), {"n": 8, "alpha": 0.5, "offset": 3}),
        ((ContextParamDecl("n"),), {"n": 8}),
    ],
)
def test_invoke_entry_packs_by_call_plan(runtime, declared, ctx):
    """Operands in declaration order with their modes, every scalar as
    payload, and only declared context parameters (all numeric scalars
    when none are declared) in the call context."""
    iface = _mixed_interface(declared)
    data, out = Vector.zeros(8, runtime=runtime), Vector.zeros(8, runtime=runtime)
    task = invoke_entry(
        runtime, _mixed_codelet(iface), iface, (8, data, 0.5, out, 3), sync=False
    )
    assert [(op.handle, op.mode) for op in task.operands] == [
        (data.handle, AccessMode.RW),
        (out.handle, AccessMode.W),
    ]
    assert task.scalar_args == (8, 0.5, 3)
    assert task.ctx == ctx
    runtime.wait_for_all()


def test_invoke_entry_plans_once_and_reuses_restricted_codelets(runtime, monkeypatch):
    iface = _mixed_interface()
    codelet = _mixed_codelet(iface)

    def call(variant):
        data, out = Vector.zeros(8, runtime=runtime), Vector.zeros(8, runtime=runtime)
        return invoke_entry(
            runtime, codelet, iface, (8, data, 0.5, out, 0), sync=False,
            dispatch=lambda ctx: variant,
        )

    first = call("mixed_cuda")
    # the plan is built: later calls read no parameter declaration
    monkeypatch.setattr(ParamDecl, "is_pointer", property(lambda p: pytest.fail()))
    second = call("mixed_cuda")
    other = call("mixed_cpu")
    assert second.codelet is first.codelet
    assert [v.name for v in first.codelet.variants] == ["mixed_cuda"]
    assert [v.name for v in other.codelet.variants] == ["mixed_cpu"]
    runtime.wait_for_all()
