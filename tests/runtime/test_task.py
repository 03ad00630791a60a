"""Task lifecycle, dependency counters and footprints."""

import numpy as np
import pytest

from repro.errors import RuntimeSystemError
from repro.runtime.access import AccessMode
from repro.runtime.codelet import Codelet, ImplVariant
from repro.runtime.archs import Arch
from repro.runtime.data import DataHandle
from repro.runtime.task import Operand, Task, TaskState


def _codelet():
    return Codelet(
        "c", [ImplVariant("v", Arch.CPU, lambda ctx, *a: None, lambda ctx, d: 1e-6)]
    )


def _task(n=16, ctx=None):
    h = DataHandle(np.zeros(n, dtype=np.float32), 2)
    return Task(_codelet(), [Operand(h, AccessMode.RW)], ctx=ctx)


def test_codelet_must_have_variants():
    with pytest.raises(RuntimeSystemError):
        Task(Codelet("empty"), [])


def test_initial_state_submitted():
    assert _task().state is TaskState.SUBMITTED


def test_names_are_unique():
    assert _task().name != _task().name


def test_dependency_counting():
    a, b = _task(), _task()
    b.add_dependency(a)
    assert b.n_pending_deps == 1
    assert b in a.dependents
    assert b.dep_satisfied()  # last dep released -> ready


def test_dependency_on_done_task_skipped():
    a, b = _task(), _task()
    a.state = TaskState.DONE
    b.add_dependency(a)
    assert b.n_pending_deps == 0


def test_dep_release_underflow_guard():
    t = _task()
    with pytest.raises(RuntimeSystemError):
        t.dep_satisfied()


def test_footprint_buckets_similar_sizes_together():
    t1 = _task(1000)
    t2 = _task(1001)
    assert t1.footprint() == t2.footprint()


def test_footprint_distinguishes_scales():
    assert _task(100).footprint() != _task(100_000).footprint()


def test_footprint_is_derived_once(monkeypatch):
    t = _task(ctx={"n": 64})
    first = t.footprint()
    monkeypatch.setattr(
        Task, "_derive_footprint", lambda self: pytest.fail("derived twice")
    )
    t.ctx["ncores"] = 4  # placement adds ncores, which the footprint excludes
    assert t.footprint() is first


def test_footprint_ctx_override():
    t = _task(ctx={"footprint": "custom"})
    assert t.footprint() == ("c", "custom")


def test_run_kernel_requires_variant():
    with pytest.raises(RuntimeSystemError):
        _task().run_kernel()


def test_run_kernel_passes_arrays_and_scalars():
    seen = {}

    def fn(ctx, arr, scale):
        seen["shape"] = arr.shape
        seen["scale"] = scale

    cl = Codelet("c", [ImplVariant("v", Arch.CPU, fn, lambda ctx, d: 0.0)])
    h = DataHandle(np.zeros(8, dtype=np.float32), 2)
    t = Task(cl, [Operand(h, AccessMode.R)], scalar_args=(2.5,))
    t.chosen_variant = cl.variants[0]
    t.run_kernel()
    assert seen == {"shape": (8,), "scale": 2.5}
