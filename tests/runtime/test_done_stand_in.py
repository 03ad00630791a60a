"""Completed tasks leave handle ordering state as DoneTask stand-ins.

A long-lived read-only handle would otherwise pin every task that ever
read it (and, through their operands, everything they touched), and a
written handle would form a task <-> handle reference cycle with its
last writer.  Neither may need the cyclic collector to be freed.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.runtime.task import DoneTask, TaskState

from tests.conftest import make_axpy_codelet


@pytest.fixture
def rt():
    runtime = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=False)
    yield runtime
    runtime.shutdown()


def _reader(rt, cl, h_x, i):
    """One task reading the shared ``h_x`` into its own fresh output."""
    h_y = rt.register(np.zeros(64, dtype=np.float32), f"y{i}")
    return rt.submit(cl, [(h_y, "rw"), (h_x, "r")], ctx={"n": 64}, scalar_args=(1.0,))


def test_early_reader_of_shared_input_is_freed_without_gc(rt):
    cl = make_axpy_codelet()
    h_x = rt.register(np.ones(64, dtype=np.float32), "x")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        first = _reader(rt, cl, h_x, 0)
        ref = weakref.ref(first)
        h_y0 = first.operands[0].handle
        del first
        for i in range(1, 64):
            _reader(rt, cl, h_x, i)
        assert ref() is None
        assert isinstance(h_y0.last_writer, DoneTask)
    finally:
        if was_enabled:
            gc.enable()


def test_folded_readers_keep_dependency_ids_and_times(rt):
    cl = make_axpy_codelet()
    h_x = rt.register(np.ones(64, dtype=np.float32), "x")
    readers = [_reader(rt, cl, h_x, i) for i in range(40)]
    ids = tuple(t.task_id for t in readers)
    latest = max(t.end_time for t in readers)
    # the 32nd append swept the 31 readers before it
    assert sum(type(r) is DoneTask for r in h_x.readers_since_write) >= 31
    assert all(r.state is TaskState.DONE for r in h_x.readers_since_write)
    h_out = rt.register(np.zeros(64, dtype=np.float32), "out")
    writer = rt.submit(
        cl, [(h_x, "rw"), (h_out, "r")], ctx={"n": 64}, scalar_args=(1.0,)
    )
    assert writer.dep_ids == ids
    assert writer.start_time >= latest
    assert h_x.readers_since_write == []
