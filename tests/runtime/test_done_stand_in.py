"""Completed tasks leave handle ordering state: a last writer as a
DoneTask stand-in, a reader as its id alone.

A long-lived read-only handle would otherwise pin every task that ever
read it (and, through their operands, everything they touched), and a
written handle would form a task <-> handle reference cycle with its
last writer.  Neither may need the cyclic collector to be freed.  A
completed reader leaves only its id in the handle's ``reader_ids`` and
its end time folded into ``done_readers_end``.
"""

import gc
import weakref
from array import array

import numpy as np
import pytest

from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.runtime.data import DataHandle
from repro.runtime.task import DoneTask, Task, TaskState

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
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        readers = [_reader(rt, cl, h_x, i) for i in range(40)]
        ids = tuple(t.task_id for t in readers)
        latest = max(t.end_time for t in readers)
        refs = [weakref.ref(t) for t in readers]
        del readers
        assert [r() for r in refs] == [None] * 40
    finally:
        if was_enabled:
            gc.enable()
    # every reader completed: its id in slot order, no object each
    assert h_x.pending_readers == {}
    assert type(h_x.reader_ids) is array
    assert tuple(h_x.reader_ids) == ids
    assert h_x.done_readers_end == latest
    h_out = rt.register(np.zeros(64, dtype=np.float32), "out")
    writer = rt.submit(
        cl, [(h_x, "rw"), (h_out, "r")], ctx={"n": 64}, scalar_args=(1.0,)
    )
    assert writer.dep_ids == ids
    assert writer.start_time >= latest
    assert h_x.reader_ids is None and h_x.pending_readers == {}


class _Reader:
    """A task stand-in: the fields the ordering state reads."""

    def __init__(self, task_id):
        self.task_id = task_id
        self.state = TaskState.SUBMITTED
        self.end_time = float("nan")


def test_readers_leave_the_pending_map_in_any_order():
    h = DataHandle(np.ones(4), n_nodes=1)
    readers = [_Reader(i) for i in range(4)]
    slots = [h.record_access(r, writes=False) for r in readers]
    assert slots == [0, 1, 2, 3]

    def finish(i, end):
        readers[i].state = TaskState.DONE
        readers[i].end_time = end
        h.reader_done(readers[i], slots[i])

    finish(2, 5.0)
    finish(1, 3.0)
    assert h.pending_readers == {0: readers[0], 3: readers[3]}
    assert h.done_readers_end == 5.0
    # a writer waits for every reader: the pending ones as objects, the
    # completed ones as DoneTasks carrying the folded end time
    deps = h.dependencies_for(writes=True)
    assert [d.task_id for d in deps] == [0, 1, 2, 3]
    assert deps[0] is readers[0] and deps[3] is readers[3]
    assert [type(d) for d in deps[1:3]] == [DoneTask, DoneTask]
    assert [d.end_time for d in deps[1:3]] == [5.0, 5.0]
    assert h.latest_end(writes=True) == 5.0
    finish(0, 4.0)
    finish(3, 6.0)
    assert h.pending_readers == {} and h.done_readers_end == 6.0
    assert tuple(h.reader_ids) == (0, 1, 2, 3)
    assert h.latest_end(writes=False) == 0.0
    # a stale slot (the list restarted at a write) leaves the state alone
    h.record_access(_Reader(8), writes=True)
    late = _Reader(9)
    assert h.record_access(late, writes=False) == 0
    h.reader_done(readers[0], 0)
    assert h.pending_readers == {0: late} and h.done_readers_end == 0.0


def test_partition_children_keep_no_finished_task():
    """A read held in a lookahead window while its handle is partitioned:
    each child copies the handle's ordering state, task included, and
    the read's completion must fold it there too (the Hypothesis case
    ``test_prop_reader_fold`` found at seed 1)."""
    rt = Runtime(
        platform_c2050(),
        scheduler="lookahead",
        scheduler_options={"window_size": 2},
        noise_sigma=0.0,
        run_kernels=False,
    )
    cl = make_axpy_codelet()
    h_x = rt.register(np.ones(64, dtype=np.float32), "x")
    h_y = rt.register(np.zeros(64, dtype=np.float32), "y")
    rt.submit(cl, [(h_y, "rw"), (h_x, "r")], ctx={"n": 64}, scalar_args=(1.0,))
    children = rt.partition_equal(h_x, 2) + rt.partition_equal(h_y, 2)
    rt.wait_for_all()
    for child in children:
        assert child.pending_readers == {}
        assert not isinstance(child.last_writer, Task)
    assert isinstance(children[2].last_writer, DoneTask)
    rt.shutdown()
