"""What a completed task leaves behind: coded columns, derived names,
one copy of each row, and no pinned Task objects.

The task ``codelet``/``variant``/``arch``/``worker_ids`` columns are
dictionary-coded, a default task name is derived from the codelet and
task id instead of stored, a row is kept only in the columns (every
read builds a new record from them), and completion swaps a task out of
every handle's ordering state.  Readers must not be able to tell any of
it.
"""

import gc
import math
import weakref
from array import array

import numpy as np
import pytest

from repro.runtime import Arch, Codelet, ImplVariant, Runtime, Task
from repro.runtime.stats import (
    CodedColumn,
    DerivedNames,
    EvictionRecord,
    ExecutionTrace,
    GeneratedName,
    NameColumn,
    RequestRecord,
    TaskRecord,
)


def _row(task_id: int, name: str = "", codelet: str = "c", workers=(0,)) -> tuple:
    # every TaskRecord field except the trailing seq
    return (
        task_id, name, codelet, f"{codelet}_cpu", "cpu", workers,
        0.0, 0.0, 1.0, 2.0, 0.5, 0, (1,), (2,), (), task_id,
    )


def _codelet(name: str = "c") -> Codelet:
    return Codelet(
        name,
        [
            ImplVariant(f"{name}_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 2e-6),
            ImplVariant(f"{name}_cuda", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-6),
        ],
    )


# -- coded columns -------------------------------------------------------------


def test_coded_column_reads_like_the_list_it_replaces():
    col = CodedColumn()
    assert len(col) == 0 and list(col) == []
    with pytest.raises(IndexError):
        col[0]
    values = ["a", "b", "a", "c", "a"]
    for v in values:
        col.append(v)
    assert list(col) == values
    assert [col[i] for i in range(-5, 5)] == values + values
    assert col.values == ["a", "b", "c"] and col.codes.typecode == "B"
    col[0] = "d"
    assert col[0] == "d" and col.values == ["a", "b", "c", "d"]
    del col[2:]
    assert list(col) == ["d", "b"]


def test_coded_column_widens_instead_of_failing():
    col = CodedColumn()
    for v in range(300):
        col.append(v)
    assert col.codes.typecode == "H"
    assert list(col) == list(range(300))
    for v in range(300, 70_000):
        col.append(v)
    assert col.codes.typecode == "I"
    assert col[-1] == 69_999 and col[255] == 255 and col[65_536] == 65_536


def test_trace_rows_widen_their_coded_columns_in_place():
    trace = ExecutionTrace()
    for i in range(260):
        trace.add_task(_row(i, codelet=f"c{i}"))
    col = trace._tasks.columns["codelet"]
    assert col.codes.typecode == "H"
    assert trace.columns("codelet") == [f"c{i}" for i in range(260)]
    assert trace.tasks[259].variant == "c259_cpu"
    assert trace.tasks_by_variant()["c259_cpu"] == 1


def test_refused_row_rolls_back_coded_and_name_columns():
    trace = ExecutionTrace()
    trace.add_task(_row(0, workers=(0,)))
    bad = list(_row(1, name="given", codelet="new", workers=(1, 2)))
    bad[9] = "late"  # end_time, a float field after the coded ones
    with pytest.raises(TypeError):
        trace.add_task(tuple(bad))
    assert trace.n_tasks == 1 and trace.next_seq == 1
    assert all(len(col) == 1 for col in trace._tasks.columns.values())
    assert trace.columns("codelet") == ["c"]
    assert trace.columns("worker_ids") == [(0,)]
    assert trace.columns("name") == ["c#0"]
    trace.add_task(_row(2, codelet="new"))
    assert trace.columns("codelet") == ["c", "new"]


def test_columns_keeps_its_documented_types():
    trace = ExecutionTrace()
    trace.add_task(_row(0, workers=(0, 1)))
    trace.add_task(_row(1, name="x"))
    for field in ("name", "codelet", "variant", "arch", "worker_ids"):
        col = trace.columns(field)
        assert type(col) is list
        assert col == [getattr(rec, field) for rec in trace.tasks]
    assert trace.columns("worker_ids") == [(0, 1), (0,)]


def test_a_trace_with_no_tasks_builds_no_code_tables():
    trace = ExecutionTrace()
    for field in ("codelet", "variant", "arch", "worker_ids"):
        col = trace._tasks.columns[field]
        assert "codes" not in vars(col) and "index" not in vars(col)
    assert trace.tasks_by_arch() == {} and trace.columns("arch") == []


# -- derived names -------------------------------------------------------------


def test_task_name_is_given_or_derived():
    cl = _codelet("k")
    named, empty, default = Task(cl, [], name="mine"), Task(cl, [], name=""), Task(cl, [])
    assert named.name == "mine" and type(named.name) is str
    for task in (empty, default):
        assert task.name == f"k#{task.task_id}"
        assert type(task.name) is GeneratedName


def test_trace_stores_only_given_names():
    trace = ExecutionTrace()
    trace.add_task(_row(5))
    trace.add_task(_row(6, name="explicit"))
    trace.add_task(_row(7, name=""))
    names = trace._tasks.columns["name"]
    assert type(names) is DerivedNames
    assert names._given == [None, "explicit", None]
    assert names._stems is None  # no <stem>#<n> name yet
    assert trace.columns("name") == ["c#5", "explicit", "c#7"]
    assert [type(r.name) for r in trace.tasks] == [GeneratedName, str, GeneratedName]
    assert names[-1] == "c#7" and names[-2] == "explicit"
    with pytest.raises(IndexError):
        names[3]


def test_all_default_names_store_nothing_per_row():
    trace = ExecutionTrace()
    for i in range(100):
        trace.add_task(_row(i))
    names = trace._tasks.columns["name"]
    assert names._given is None and names._stems is None
    assert trace.tasks[42].name == "c#42"


def test_served_names_are_stored_as_stem_and_number():
    trace = ExecutionTrace()
    given = [
        "t0/sgemm#17",
        "t0/sgemm#18",
        "t1/bfs#0",
        "a#007",  # a leading zero would not read back
        "a#-1",
        "a#",
        "a#\u0661\u0662",  # non-ASCII digits
        "a#" + "9" * 19,  # past int64
        GeneratedName("c#3"),
    ]
    trace.add_task(_row(0))
    for i, name in enumerate(given, 1):
        trace.add_task(_row(i, name=name))
    names = trace._tasks.columns["name"]
    assert list(names._nums) == [0, 17, 18, 0] + [0] * 5 + [3]
    # one table entry per stem, not per name; the rest kept whole
    assert names._stems.values == [
        None, (str, "t0/sgemm"), (str, "t1/bfs"), (GeneratedName, "c")
    ]
    assert names._given == [None] * 4 + given[3:8] + [None]
    back = trace.columns("name")
    assert back == ["c#0", *given]
    assert [type(n) for n in back] == [GeneratedName] + [str] * 8 + [GeneratedName]
    names[1] = ""
    names[0] = "x#5"
    assert names[0] == "x#5" and names[1] == "c#1"
    names[2] = "kept whole"
    del names[3:]
    assert list(names) == ["x#5", "c#1", "kept whole"]
    assert len(names._nums) == len(names._given) == 3


def test_handle_names_are_stored_as_stem_and_number():
    given = [
        "t0:C17",  # a served output
        "t0:C18",
        GeneratedName("data3"),
        "x",
        "",
        "a007",  # a leading zero would not read back
        "17",
        "b" + "9" * 19,  # past int64
    ]
    trace = ExecutionTrace()
    for i, name in enumerate(given):
        trace.add_transfer((10 + i, name, 0, 1, 64, 0.0, 1.0))
    names = trace._transfers.columns["handle_name"]
    assert type(names) is NameColumn
    assert names._stems.values == [
        None, (str, "t0:C"), (GeneratedName, "data"), (str, "")
    ]
    assert list(names._nums) == [17, 18, 3, 0, 0, 0, 17, 0]
    assert names._given == [None] * 3 + given[3:6] + [None, given[7]]
    back = trace.columns("handle_name", "transfers")
    assert back == given
    assert [type(n) for n in back] == [type(n) for n in given]
    # still a GeneratedName: the canonical form renumbers it (12 -> 2)
    assert trace.canonicalized().transfers[2].handle_name == "data2"


def test_derived_names_are_byte_identical_in_every_export(machine):
    from repro.runtime.trace_export import to_chrome_trace, trace_to_dict

    rt = Runtime(machine, scheduler="eager", noise_sigma=0.0, run_kernels=False)
    cl = _codelet("d")
    h = rt.register(np.zeros(8, dtype=np.float32), "h")
    tasks = [rt.submit(cl, [(h, "rw")]) for _ in range(3)]
    rt.submit(cl, [(h, "rw")], name="given")
    rt.wait_for_all()
    expected = [t.name for t in tasks] + ["given"]
    assert rt.trace.columns("name") == expected
    assert [r["name"] for r in trace_to_dict(rt.trace, rt.machine)["tasks"]] == expected
    events = to_chrome_trace(rt.trace, rt.machine)["traceEvents"]
    assert [e["args"]["task"] for e in events if "task" in e.get("args", {})] == expected
    rt.shutdown()


def test_canonical_form_renumbers_only_generated_names():
    trace = ExecutionTrace()
    trace.add_task(_row(40))
    trace.add_task(_row(41, name="c#41"))  # looks generated, was given
    canon = trace.canonicalized()
    assert canon.columns("name") == ["c#0", "c#41"]
    assert canon.canonicalized().state_dict() == canon.state_dict()
    # a whole record with an empty name reads its derived name everywhere,
    # and canonicalizes as the same row appended raw
    whole = ExecutionTrace()
    whole.tasks.append(TaskRecord.make(*_row(40), seq=0))
    assert whole.tasks[0].name == "c#40" and whole.columns("name") == ["c#40"]
    assert whole.state_dict()["tasks"][0]["name"] == "c#40"
    raw = ExecutionTrace()
    raw.add_task(_row(40))
    canonical = [t.canonicalized().state_dict()["tasks"] for t in (whole, raw)]
    assert canonical[0] == canonical[1]


# -- one copy of each row --------------------------------------------------------


def test_reads_build_new_records_and_normalize_negative_indices():
    trace = ExecutionTrace()
    for i in range(10):
        trace.add_task(_row(i))
    last = trace.tasks[-1]
    assert trace.tasks[9] == last and trace.tasks[9] is not last
    assert trace.tasks[-10].task_id == 0
    for i in (10, -11):
        with pytest.raises(IndexError):
            trace.tasks[i]
    assert [r.task_id for r in trace.tasks] == list(range(10))
    assert trace.tasks[-3:] == list(trace.tasks)[7:]
    # a changed record changes nothing in the trace; an assignment does
    last.end_time = 99.0
    assert trace.tasks[-1].end_time == 2.0 and trace.makespan == 2.0
    trace.tasks[-1] = last
    assert trace.tasks[-1] == last and trace.makespan == 99.0


def test_appended_records_read_back_equal():
    trace = ExecutionTrace()
    rec = TaskRecord.make(3, "t", "c", "v", "cpu", (0,), 0.0, 0.0, 0.0, 1.0)
    trace.tasks.append(rec)
    assert trace.tasks[0] == rec and trace.tasks[-1] == rec
    assert next(iter(trace.tasks)) == rec
    # whole-record kinds keep each value as given: an int in a float
    # field stays an int, a shed request's never-set times the shared NaN
    evicted = trace.record_eviction(
        EvictionRecord.make(
            handle_id=1, handle_name="h", node=1, nbytes=8, time=2, flushed=False
        )
    )
    assert trace.evictions[0] == evicted
    assert trace.columns("time", "evictions") == [2]
    served = RequestRecord.make(
        tenant="t", req_id=0, codelet="c", arrival_time=0.5, dispatch_time=1.0,
        start_time=1.0, end_time=2.0, transfer_s=0,
    )
    shed = RequestRecord.make(
        tenant="t", req_id=1, codelet="c", arrival_time=0.5, shed=True
    )
    trace.record_request(served)
    trace.record_request(shed)
    assert list(trace.requests) == [served, shed]
    assert type(trace.requests[0].transfer_s) is int
    assert math.isnan(trace.requests[1].end_time)
    assert trace.requests[1] == trace.requests[1] == shed
    assert trace.canonicalized().requests == trace.requests


# -- no pinned tasks ---------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["eager", "dmda"])
def test_handle_read_by_many_tasks_pins_none_of_them(machine, scheduler):
    rt = Runtime(machine, scheduler=scheduler, noise_sigma=0.0, run_kernels=False)
    cl = _codelet("r")
    x = rt.register(np.ones(64, dtype=np.float32), "x")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        ids = []
        for i in range(1000):
            y = rt.register(np.zeros(64, dtype=np.float32), f"y{i}")
            task = rt.submit(cl, [(y, "w"), (x, "r")])
            refs.append(weakref.ref(task))
            ids.append(task.task_id)
            del task
        rt.wait_for_all()
        # every reader's id in one array, in slot order: no Task or
        # DoneTask is kept per reader
        assert x.pending_readers == {}
        assert type(x.reader_ids) is array
        assert list(x.reader_ids) == ids
        assert [r() for r in refs] == [None] * 1000
    finally:
        if was_enabled:
            gc.enable()
    rt.shutdown()
