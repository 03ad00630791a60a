"""The blessed trace-access API and its typed columns.

The million-task refactor made record layout an engine internal:
records live in a columnar store and everything outside the engine
reads them through ``trace.tasks()`` / ``trace.columns(...)`` or forges
them with ``Record.make(...)``.  These tests pin the stable surface,
the typed columns behind it (narrow int arrays that widen to
``array('q')`` when a value outgrows them, ragged id tuples) — and that
the metrics-off hot path builds no event payloads at all.
"""

from __future__ import annotations

import dataclasses
import warnings
from array import array

import numpy as np
import pytest

from repro.hw.description import make_machine
from repro.hw.devices import tesla_c2050, xeon_e5520_core
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime import events as events_mod
from repro.runtime.stats import (
    ExecutionTrace,
    RaggedColumn,
    TaskRecord,
    TransferRecord,
    _ColumnStore,
)
from repro.runtime.trace_export import load_trace_json, save_trace_json


def _run_small(n_tasks: int = 20) -> Runtime:
    rt = Runtime(
        platform_c2050(),
        scheduler="eager",
        seed=7,
        noise_sigma=0.0,
        run_kernels=False,
    )
    codelet = Codelet(
        "api",
        [
            ImplVariant("api_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 1e-6),
            ImplVariant("api_gpu", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-7),
        ],
    )
    h = rt.register(np.zeros(32, dtype=np.float32), "h")
    for i in range(n_tasks):
        rt.submit(codelet, [(h, "rw")], name=f"t{i}")
    rt.wait_for_all()
    return rt


# -- blessed accessors -------------------------------------------------------


def test_tasks_accessor_is_callable_and_sequence():
    rt = _run_small(12)
    trace = rt.engine.trace
    # the blessed iteration spelling: trace.tasks()
    recs = list(trace.tasks())
    assert len(recs) == 12
    assert all(isinstance(r, TaskRecord) for r in recs)
    # the attribute still behaves like the list it used to be
    assert len(trace.tasks) == 12
    assert trace.tasks[0].name == "t0"
    assert trace.tasks[-1].name == "t11"
    assert [r.name for r in trace.tasks[2:4]] == ["t2", "t3"]
    rt.shutdown()


def test_transfers_and_faults_accessors():
    rt = _run_small(8)
    trace = rt.engine.trace
    assert list(trace.faults()) == []
    for rec in trace.transfers():
        assert isinstance(rec, TransferRecord)
    rt.shutdown()


def test_columns_view_matches_records():
    rt = _run_small(10)
    trace = rt.engine.trace
    ends = trace.columns("end_time")
    assert isinstance(ends, array)  # float field -> array('d')
    assert list(ends) == [r.end_time for r in trace.tasks()]
    names = trace.columns("name")
    assert isinstance(names, list)  # object field -> plain list
    assert names[0] == "t0"
    rt.shutdown()


def test_columns_rejects_unknown_field_and_kind():
    trace = ExecutionTrace()
    with pytest.raises(KeyError, match="no field"):
        trace.columns("nope")
    with pytest.raises(KeyError, match="unknown record kind"):
        trace.columns("end_time", kind="nope")


def test_state_dict_round_trips_records():
    rt = _run_small(5)
    doc = rt.engine.trace.state_dict()
    assert len(doc["tasks"]) == 5
    assert doc["tasks"][0]["name"] == "t0"
    rt.shutdown()


# -- record construction -----------------------------------------------------


def test_direct_record_construction_is_refused():
    with pytest.raises(TypeError, match=r"TaskRecord\.make"):
        TaskRecord(1, "t", "c", "v", "cpu", (0,), 0.0, 0.0, 0.0, 1.0)


def test_make_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = TaskRecord.make(
            1, "t", "c", "v", "cpu", (0,), 0.0, 0.0, 0.0, 1.0
        )
    assert rec.end_time == 1.0
    assert rec.replace(name="u").name == "u"
    assert rec.as_dict()["task_id"] == 1


# -- typed columns -----------------------------------------------------------


def _rec(task_id=5, **fields) -> TaskRecord:
    return TaskRecord.make(
        task_id, f"t{task_id}", "c", "v", "cpu", (0,), 0.0, 0.0, 0.0, 1.0, **fields
    )


def _start_typecode(name: str) -> str:
    return "b" if name in ("node", "src_node", "dst_node") else "i"


def test_int_columns_start_narrow():
    rt = _run_small(10)
    trace = rt.engine.trace
    seq = trace.columns("seq")
    assert isinstance(seq, array) and seq.typecode == "i"
    assert len(seq) == 10 and list(seq) == sorted(set(seq))
    for name in TaskRecord._int_fields:
        assert trace.columns(name).typecode == _start_typecode(name)
    for name in TransferRecord._int_fields:
        assert trace.columns(name, "transfers").typecode == _start_typecode(name)
    for name in TaskRecord._ragged_fields:
        col = trace.columns(name)
        assert col.values.typecode == col.ends.typecode == "i"
    assert all(type(r.task_id) is int for r in trace.tasks())
    # the trace's own folds read every int column as int64
    assert trace._array("tasks", "node").dtype == np.int64
    rt.shutdown()


def test_numpy_views_share_memory_with_the_trace():
    rt = _run_small(10)
    trace = rt.engine.trace
    for name in ("seq", "node", "end_time"):
        col = trace.columns(name)
        view = np.frombuffer(col, col.typecode)
        assert view.__array_interface__["data"][0] == col.buffer_info()[0]
        assert view.tolist() == list(col)
        del view  # a live view would pin the array's size
    rt.shutdown()


def test_ragged_columns_index_and_iterate_to_the_record_tuples():
    rt = _run_small(10)  # ten tasks chained through one "rw" handle
    trace = rt.engine.trace
    ids = list(trace.columns("task_id"))
    hid = trace.columns("reads").values[0]
    want = {
        "reads": [(hid,)] * 10,
        "writes": [(hid,)] * 10,
        "deps": [()] + [(t,) for t in ids[:-1]],
    }
    for name, rows in want.items():
        col = trace.columns(name)
        assert isinstance(col, RaggedColumn) and len(col) == 10
        assert list(col) == rows
        assert [col[i] for i in range(10)] == rows
        assert col[-1] == rows[-1] and col[2:5] == rows[2:5]
        assert [getattr(r, name) for r in trace.tasks()] == rows
        with pytest.raises(IndexError):
            col[10]
    rt.shutdown()


def test_ragged_rows_of_any_length_survive_append_and_assignment():
    trace = ExecutionTrace()
    trace.add_task(_rec(1, reads=[1, 2, 3], writes=[], deps=())._astuple()[:-1])
    trace.tasks.append(_rec(2, reads=(), writes=(4,), deps=(1,), seq=1))
    trace.add_task(_rec(3, reads=(5,), writes=(5, 6), deps=(1, 2))._astuple()[:-1])
    assert list(trace.columns("reads")) == [(1, 2, 3), (), (5,)]
    assert trace.tasks[0].reads == (1, 2, 3)
    # assignment through the records view resizes one row in place
    trace.tasks[0] = trace.tasks[0].replace(reads=(9,), deps=(7, 8))
    trace.tasks[1] = trace.tasks[1].replace(reads=(4, 4))
    assert list(trace.columns("reads")) == [(9,), (4, 4), (5,)]
    assert list(trace.columns("deps")) == [(7, 8), (1,), (1, 2)]
    assert list(trace.columns("writes")) == [(), (4,), (5, 6)]
    assert trace.columns("reads").values.tolist() == [9, 4, 4, 5]
    assert trace.columns("reads").ends.tolist() == [1, 3, 4]
    trace.clear()
    assert len(trace.columns("reads")) == 0 and not trace.columns("reads").values


def test_forged_rows_canonical_form_and_trace_json_round_trip(tmp_path):
    rt = _run_small(10)
    trace = rt.engine.trace
    canon = trace.canonicalized()
    assert canon.columns("task_id").typecode == "i"
    assert list(canon.columns("task_id")) == list(range(10))
    assert list(canon.columns("deps")) == [()] + [(i,) for i in range(9)]
    assert canon.canonicalized().state_dict() == canon.state_dict()
    path = save_trace_json(trace, rt.machine, tmp_path / "a.json")
    loaded, _ = load_trace_json(path)
    for kind in ("tasks", "transfers", "accesses"):
        assert list(getattr(loaded, kind)) == list(getattr(trace, kind))
    assert loaded.columns("deps").values == trace.columns("deps").values
    again = save_trace_json(loaded, rt.machine, tmp_path / "b.json")
    assert again.read_text() == path.read_text()
    rt.shutdown()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("task_id", 1.5),
        ("node", None),
        ("submit_seq", "3"),
        ("reads", (1, "x")),
        ("deps", (2.5,)),
    ],
)
def test_non_int_in_an_int_field_raises_and_leaves_no_row(field, bad):
    trace = ExecutionTrace()
    good = _rec(1, reads=(1,), deps=(0,), seq=0)
    trace.tasks.append(good)
    forged = good.replace(**{field: bad})
    with pytest.raises(TypeError):
        trace.tasks.append(forged)
    with pytest.raises(TypeError):
        trace.add_task(forged._astuple()[:-1])
    with pytest.raises(TypeError):
        trace.tasks[0] = forged
    assert trace.n_tasks == 1 and trace.next_seq == 0
    assert all(len(col) == 1 for col in trace._tasks.columns.values())
    assert list(trace.columns(field)) == [getattr(good, field)]
    assert trace.columns("reads").values.tolist() == [1]


# -- widening -----------------------------------------------------------------

BIG = 1 << 40  # past every narrow width, well inside int64


def _write(trace: ExecutionTrace, kind: str, how: str, rec) -> int:
    """Write ``rec`` into ``trace``'s ``kind`` store ``how``; its row."""
    view = getattr(trace, kind)
    if how == "add":
        trace.next_seq = rec.seq
        add = trace.add_task if kind == "tasks" else trace.add_transfer
        add(rec._astuple()[:-1])
    elif how == "append":
        view.append(rec)
    else:
        view[0] = rec
        return 0
    return len(view) - 1


@pytest.mark.parametrize("how", ["add", "append", "assign"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("task_id", BIG),
        ("node", 128),
        ("submit_seq", -BIG),
        ("seq", BIG),
        ("reads", (1, BIG)),
        ("deps", (BIG,)),
        ("name", f"t#{BIG}"),
    ],
)
def test_task_values_past_a_narrow_width_widen_the_store(how, field, value):
    trace = ExecutionTrace()
    first = _rec(1, reads=(1,), deps=(0,), seq=1).replace(name="")
    trace.tasks.append(first)
    assert trace.columns("task_id").typecode == "i"
    rec = first.replace(name="t#0", seq=2).replace(**{field: value})
    row = _write(trace, "tasks", how, rec)
    assert trace._tasks.build(row) == rec
    if how != "assign":
        # the default name is derived from the widened id column
        assert trace._tasks.build(0) == first.replace(name="c#1")
        assert trace.n_tasks == 2
    # every narrow int column moved, not just the one that overflowed
    assert trace.columns("task_id").typecode == "q"
    assert trace.columns("node").typecode == "q"
    assert trace.columns("reads").values.typecode == "q"


@pytest.mark.parametrize("how", ["add", "append", "assign"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("handle_id", BIG),
        ("src_node", 300),
        ("dst_node", -129),
        ("nbytes", 1 << 31),
        ("handle_name", f"h{BIG}"),
    ],
)
def test_transfer_values_past_a_narrow_width_widen_the_store(how, field, value):
    trace = ExecutionTrace()
    first = TransferRecord.make(7, "data7", 0, 1, 64, 0.0, 1.0, seq=0)
    trace.transfers.append(first)
    rec = first.replace(**{field: value}, seq=1)
    row = _write(trace, "transfers", how, rec)
    assert trace._transfers.build(row) == rec
    if how != "assign":
        assert trace._transfers.build(0) == first
    assert trace.columns("src_node", "transfers").typecode == "q"
    assert trace.columns("nbytes", "transfers").typecode == "q"


def test_write_through_rows_widen_their_store():
    store = _ColumnStore(TransferRecord, rows=True)
    store.append_record(TransferRecord.make(7, "data7", 0, 1, 64, 0.0, 1.0))
    row = store.get(0)
    row.nbytes = 1 << 33
    row.dst_node = 200
    assert (row.nbytes, row.dst_node) == (1 << 33, 200)
    assert store.columns["src_node"].typecode == "q"
    assert store.get(0).as_dict() == TransferRecord.make(
        7, "data7", 0, 200, 1 << 33, 0.0, 1.0
    ).as_dict()


def test_a_row_that_is_too_wide_and_not_an_int_leaves_no_row():
    trace = ExecutionTrace()
    trace.tasks.append(_rec(1, seq=0))
    bad = _rec(BIG, reads=(1, "x"), seq=1)
    for write in (
        lambda: trace.tasks.append(bad),
        lambda: trace.add_task(bad._astuple()[:-1]),
        lambda: trace.tasks.__setitem__(0, bad),
    ):
        with pytest.raises(TypeError):
            write()
    assert trace.n_tasks == 1 and trace.next_seq == 0
    assert all(len(col) == 1 for col in trace._tasks.columns.values())
    assert trace.tasks[0] == _rec(1, seq=0)
    # past int64 is refused, as it always was
    with pytest.raises(OverflowError):
        trace.tasks.append(_rec(1 << 63, seq=1))
    assert trace.n_tasks == 1


def test_a_widened_trace_reads_as_one_wide_from_the_start(tmp_path):
    rt = _run_small(10)
    recs = [*rt.engine.trace.tasks, _rec(BIG, reads=(BIG,), seq=BIG)]
    xfers = [
        TransferRecord.make(hid, f"data{hid}", 0, 1, hid, 0.0, 1.0, seq=seq)
        for hid, seq in ((7, 10), (BIG, BIG + 1))
    ]
    grown, wide = ExecutionTrace(), ExecutionTrace()
    for store in (wide._tasks, wide._transfers):
        assert store.refused(OverflowError())
    for trace in (grown, wide):
        trace.tasks.extend(recs)
        trace.transfers.extend(xfers)
    assert grown.columns("task_id").typecode == "q"
    assert grown.state_dict() == wide.state_dict()
    assert grown.canonicalized().state_dict() == wide.canonicalized().state_dict()
    paths = [
        save_trace_json(t, rt.machine, tmp_path / f"{i}.json")
        for i, t in enumerate((grown, wide))
    ]
    assert paths[0].read_text() == paths[1].read_text()
    loaded, _ = load_trace_json(paths[0])
    assert list(loaded.tasks) == recs and list(loaded.transfers) == xfers
    rt.shutdown()


def test_transfer_int_fields_refuse_floats():
    trace = ExecutionTrace()
    with pytest.raises(TypeError):
        trace.add_transfer((7, "h7", 0, 1, 64.0, 0.0, 1.0))
    assert trace.n_transfers == 0
    assert all(len(col) == 0 for col in trace._transfers.columns.values())


# -- metrics-off hot path ----------------------------------------------------


def test_metrics_off_run_builds_zero_event_payloads(monkeypatch):
    """With no subscribers, the want-gates must skip payload
    construction entirely: no event object is ever allocated, and no
    per-task emitter is even called (``emit_flush`` and ``emit_fault``
    are called ungated by design)."""
    constructed = []
    emitted = []

    def _recording(name):
        emit = getattr(events_mod.EngineEvents, name)

        def wrapper(self, *a, **k):
            emitted.append(name)
            return emit(self, *a, **k)

        return wrapper

    for name in (
        "emit_submit",
        "emit_schedule",
        "emit_start",
        "emit_complete",
        "emit_transfer",
        "emit_evict",
    ):
        monkeypatch.setattr(events_mod.EngineEvents, name, _recording(name))

    def _counting(cls):
        class Counting(cls):
            def __init__(self, *a, **k):
                constructed.append(cls.__name__)
                super().__init__(*a, **k)

        return Counting

    for name in (
        "SubmitEvent",
        "ScheduleEvent",
        "StartEvent",
        "CompleteEvent",
        "TransferEvent",
        "EvictEvent",
        "FaultEvent",
        "FlushEvent",
    ):
        monkeypatch.setattr(
            events_mod, name, _counting(getattr(events_mod, name))
        )

    rt = _run_small(30)
    # GPU-only tasks and a host read-back, so the transfer path runs too
    gpu = Codelet(
        "api_gpu_only",
        [ImplVariant("gpu_only", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-7)],
    )
    h = rt.register(np.zeros(32, dtype=np.float32), "g")
    for i in range(5):
        rt.submit(gpu, [(h, "rw")], name=f"g{i}")
    rt.acquire(h, "r")
    rt.wait_for_all()
    ev = rt.engine.events
    assert ev.n_subscribers() == 0
    assert rt.trace.n_transfers > 0
    assert constructed == []
    assert emitted == []
    assert ev._ring == []
    rt.shutdown()
    assert constructed == []
    assert emitted == []

    # a 10 MB GPU and three 4 MB operands, so the eviction path runs too
    mb = 1 << 20
    tiny = make_machine(
        "tiny-gpu",
        cpu=xeon_e5520_core(),
        n_cpu_cores=4,
        gpus=[dataclasses.replace(tesla_c2050(), memory_bytes=10 * mb)],
    )
    rt = Runtime(tiny, scheduler="eager", seed=0, noise_sigma=0.0)
    for name in "abc":
        h = rt.register(np.zeros(4 * mb // 4, dtype=np.float32), name)
        rt.submit(gpu, [(h, "r")], sync=True)
    assert rt.trace.n_evictions == 1
    rt.shutdown()
    assert constructed == []
    assert emitted == []


def test_subscribed_run_builds_payloads():
    """Control for the zero-payload test: with a subscriber the same
    workload does deliver typed events."""
    rt = _run_small(0)
    seen = []
    rt.engine.events.subscribe("complete", seen.append)
    codelet = Codelet(
        "sub",
        [ImplVariant("sub_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 1e-6)],
    )
    h = rt.register(np.zeros(8, dtype=np.float32), "s")
    rt.submit(codelet, [(h, "rw")], name="s0")
    rt.wait_for_all()
    assert [e.task.name for e in seen] == ["s0"]
    assert isinstance(seen[0].record, TaskRecord)
    rt.shutdown()
