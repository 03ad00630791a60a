"""Property: the one-read checker and the column-filled canonical form
agree with the record-at-a-time oracles they replaced.

``check_trace`` builds each record once and ``canonicalized()``
renumbers a copy column by column.  The references kept below are the
versions before that change, verbatim: a checker whose every rule family
re-reads the trace, and a canonical form that rebuilds every record.
Hypothesis mutates small real traces (forged rows written through
every path, widened int columns, given names that look generated,
faults with ``None`` ids, shed requests carrying the shared NaN, ints in
float fields, counters) and both versions must report the same
violations (rule, message, events, order), the same canonical state
(values and their types) and the same canonical trace JSON.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check import check_trace
from repro.errors import InvariantViolation
from repro.hw.description import HOST_NODE, Machine, copy_route, make_machine
from repro.hw.devices import tesla_c2050, xeon_e5520_core
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, RecoveryPolicy, Runtime
from repro.runtime.stats import (
    ACCESS_KINDS,
    FAULT_KINDS,
    AccessRecord,
    EvictionRecord,
    ExecutionTrace,
    FaultRecord,
    GeneratedName,
    RequestRecord,
    TaskRecord,
    TransferRecord,
    _ColumnStore,
)
from repro.runtime.trace_export import MachineInfo, trace_to_dict
from repro.serve import AdmissionPolicy, CompositionServer, TenantSpec

from tests.conftest import make_axpy_codelet

EPS = 1e-9
_CREATE, _CONSUME, _INVALIDATE = 0, 1, 2
BIG = 1 << 40  # past every narrow int width


# -- the reference canonical form --------------------------------------------


def _reference_canonicalized(trace: ExecutionTrace) -> ExecutionTrace:
    """``ExecutionTrace.canonicalized()`` as it was when it rebuilt every
    record, verbatim but for the public API it now reads through."""
    task_map: dict[int, int] = {}
    handle_map: dict[int, int] = {}

    def tid(old: int) -> int:
        return task_map.setdefault(old, len(task_map))

    def hid(old: int) -> int:
        return handle_map.setdefault(old, len(handle_map))

    stream = [
        *trace.tasks,
        *trace.transfers,
        *trace.evictions,
        *trace.accesses,
        *trace.faults,
    ]
    stream.sort(key=lambda r: r.seq)
    for rec in stream:
        if isinstance(rec, TaskRecord):
            tid(rec.task_id)
            for h in (*rec.reads, *rec.writes):
                hid(h)
        elif isinstance(rec, (TransferRecord, EvictionRecord)):
            hid(rec.handle_id)
        elif isinstance(rec, AccessRecord):
            hid(rec.handle_id)
            for h in rec.related:
                hid(h)
        elif isinstance(rec, FaultRecord):
            if rec.task_id is not None:
                tid(rec.task_id)
            if rec.handle_id is not None:
                hid(rec.handle_id)
    for trec in trace.tasks:
        for d in trec.deps:
            tid(d)
    for rrec in trace.requests:
        if rrec.task_id is not None:
            tid(rrec.task_id)

    def task_name(name: str, old: int) -> str:
        if type(name) is not GeneratedName:
            return name
        return GeneratedName(f"{name.rpartition('#')[0]}#{task_map[old]}")

    def handle_name(name: str, old: int) -> str:
        if type(name) is not GeneratedName:
            return name
        return GeneratedName(f"data{handle_map[old]}")

    out = ExecutionTrace()
    for name in ExecutionTrace.COUNTER_FIELDS:
        value = getattr(trace, name)
        if isinstance(value, (dict, set)):
            value = type(value)(value)
        setattr(out, name, value)
    for trec in trace.tasks:
        out.tasks.append(
            trec.replace(
                task_id=task_map[trec.task_id],
                name=task_name(trec.name, trec.task_id),
                reads=tuple(handle_map[h] for h in trec.reads),
                writes=tuple(handle_map[h] for h in trec.writes),
                deps=tuple(task_map[d] for d in trec.deps),
            )
        )
    for xrec in trace.transfers:
        out.transfers.append(
            xrec.replace(
                handle_id=handle_map[xrec.handle_id],
                handle_name=handle_name(xrec.handle_name, xrec.handle_id),
            )
        )
    for erec in trace.evictions:
        out.evictions.append(
            erec.replace(
                handle_id=handle_map[erec.handle_id],
                handle_name=handle_name(erec.handle_name, erec.handle_id),
            )
        )
    for arec in trace.accesses:
        out.accesses.append(
            arec.replace(
                handle_id=handle_map[arec.handle_id],
                handle_name=handle_name(arec.handle_name, arec.handle_id),
                related=tuple(handle_map[h] for h in arec.related),
            )
        )
    for frec in trace.faults:
        out.faults.append(
            frec.replace(
                task_id=(None if frec.task_id is None else task_map[frec.task_id]),
                task_name=(
                    frec.task_name
                    if frec.task_id is None
                    else task_name(frec.task_name, frec.task_id)
                ),
                handle_id=(
                    None if frec.handle_id is None else handle_map[frec.handle_id]
                ),
                handle_name=(
                    frec.handle_name
                    if frec.handle_id is None
                    else handle_name(frec.handle_name, frec.handle_id)
                ),
            )
        )
    for rrec in trace.requests:
        out.requests.append(
            rrec.replace(
                task_id=(None if rrec.task_id is None else task_map[rrec.task_id]),
            )
        )
    return out


# -- small real traces to mutate ----------------------------------------------


def _gpu_run():
    """Transfers, given and generated names, host accesses, a partition."""
    machine = platform_c2050()
    rt = Runtime(machine, scheduler="eager", seed=0, noise_sigma=0.0)
    cl, gpu = make_axpy_codelet(), make_axpy_codelet(archs=("cuda",))
    y = rt.register(np.zeros(4096, dtype=np.float32))  # named data<id>
    x = rt.register(np.ones(4096, dtype=np.float32), "x")
    for i in range(6):
        rt.submit(gpu if i < 3 else cl, [(y, "rw"), (x, "r")], ctx={"n": 4096},
                  scalar_args=(1.0,), name=f"t#{i}" if i % 2 else "")
    rt.acquire(y, "r")
    halves = rt.partition_equal(x, 2)
    rt.submit(cl, [(halves[0], "rw"), (halves[1], "r")], ctx={"n": 2048},
              scalar_args=(1.0,))
    rt.unpartition(x)
    rt.acquire(x, "rw")
    rt.unregister(y)
    rt.wait_for_all()
    rt.shutdown()
    return rt.trace, machine


def _fault_run():
    """Kernel and transfer faults, retries, a lost device."""
    machine = platform_c2050()
    gpu = machine.gpu_units[0].unit_id
    rt = Runtime(
        machine, scheduler="dmda", seed=0,
        faults=FaultModel(kernel_fault_rate=0.3, transfer_fault_rate=0.3,
                          device_loss_at={gpu: 3e-3}, seed=3),
        recovery=RecoveryPolicy(max_retries=8),
    )
    cl = make_axpy_codelet()
    n = 1 << 18
    y = rt.register(np.zeros(n, dtype=np.float32))
    x = rt.register(np.ones(n, dtype=np.float32))
    for _ in range(16):
        rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": n}, scalar_args=(1.0,))
    rt.wait_for_all()
    rt.shutdown()
    return rt.trace, machine


def _evict_run():
    """A 10 MB GPU and three 4 MB operands: evictions, one flushed."""
    gpu = dataclasses.replace(tesla_c2050(), memory_bytes=10 << 20)
    machine = make_machine("tiny-gpu", cpu=xeon_e5520_core(), n_cpu_cores=2, gpus=[gpu])
    rt = Runtime(machine, scheduler="eager", seed=0, noise_sigma=0.0)
    cl = Codelet(
        "k", [ImplVariant("k", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-4)]
    )
    for name, mode in zip("abc", ("rw", "r", "r")):
        h = rt.register(np.zeros(1 << 20, dtype=np.float32), name)
        rt.submit(cl, [(h, mode)], sync=True)
    rt.shutdown()
    return rt.trace, machine


def _serve_run():
    """Served and shed requests (the shed ones keep the shared NaN)."""
    tenants = [TenantSpec("t0", workload="sgemm", size=64, rate_hz=50000.0,
                          n_requests=12, seed=1)]
    server = CompositionServer(
        platform_c2050(), tenants=tenants, scheduler="eager",
        admission=AdmissionPolicy(max_queue_depth=2), check=False,
    )
    server.run()
    server.shutdown()
    return server.trace, server.runtime.machine


_RUNS = {
    "gpu": _gpu_run, "faults": _fault_run, "evict": _evict_run, "serve": _serve_run,
}


@functools.cache
def _base(name: str):
    return _RUNS[name]()


def _copy(trace: ExecutionTrace) -> ExecutionTrace:
    """A deep copy whose hot-path appenders write its own columns."""
    twin = copy.deepcopy(trace)
    for store in (twin._tasks, twin._transfers):
        store.append_stamped = store._stamped()
    return twin


def _refill(draw, base: ExecutionTrace) -> ExecutionTrace:
    """``base``'s rows written again into a new trace, each through a
    drawn path (a default task name comes back as a kept
    GeneratedName), its hot-path stores widened before the fill or not."""
    trace = ExecutionTrace()
    if draw(st.booleans()):
        for store in (trace._tasks, trace._transfers):
            store.refused(OverflowError())
    for name in ExecutionTrace.COUNTER_FIELDS:
        setattr(trace, name, copy.copy(getattr(base, name)))
    for kind in ExecutionTrace.RECORD_KINDS:
        for rec in getattr(base, kind):
            _write(draw, trace, kind, rec)
    return trace


# -- mutations ------------------------------------------------------------------

_TASK_NAMES = st.one_of(
    st.sampled_from(["", "given", "c#7", "t0/sgemm#17", "data3"]),
    st.sampled_from(["axpy#5", "foo#12", "x", "a#b#3", "#4", "c#007"]).map(
        GeneratedName
    ),
)
_HANDLE_NAMES = st.one_of(
    st.sampled_from(["h", "data7", "t0:C17", "x#2"]),
    st.sampled_from(["data9", "foo3", "x", "data007"]).map(GeneratedName),
)
_TIMES = st.one_of(
    st.floats(0.0, 1e-3),
    st.sampled_from([math.nan, math.inf, -1.0, 3, 0]),
)


@st.composite
def _mutated(draw):
    """A base trace, copied and mutated; with its machine."""
    base, machine = _base(draw(st.sampled_from(sorted(_RUNS))))
    trace = _refill(draw, base) if draw(st.booleans()) else _copy(base)
    task_ids = [r.task_id for r in base.tasks] or [0]
    handle_ids = sorted({h for r in base.tasks for h in (*r.reads, *r.writes)}) or [0]
    seqs = list(range(base.next_seq)) or [0]
    tid = st.one_of(st.sampled_from(task_ids), st.integers(0, 50), st.just(BIG))
    hid = st.one_of(st.sampled_from(handle_ids), st.integers(0, 50), st.just(BIG))
    seq = st.one_of(st.sampled_from(seqs), st.just(trace.next_seq), st.just(BIG),
                    st.just(-1))
    units = [u.unit_id for u in machine.units]
    workers = st.lists(st.sampled_from(units + [99]), min_size=0, max_size=2).map(tuple)
    node = st.sampled_from([0, 1, 2, 200])
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(
            ["task", "transfer", "eviction", "access", "fault", "request",
             "widen", "counter", "shift", "shift", "clone", "blacklist"]
        ))
        if op in ("shift", "clone"):
            # move a real row in time (overlaps, early reads, late deps),
            # or add a copy that ends elsewhere (same-start neighbours)
            kinds = [
                k
                for k in ("tasks", "transfers", "evictions", "accesses", "faults")
                if len(getattr(trace, k))
            ]
            if not kinds:
                continue
            kind = draw(st.sampled_from(kinds))
            view = getattr(trace, kind)
            i = draw(st.integers(0, len(view) - 1))
            delta = draw(st.sampled_from([-1e-3, -1e-4, -1e-6, 1e-6, 1e-4]))
            rec = view[i]
            if op == "clone":
                end = "time" if "time" in rec._fields else "end_time"
                _write(draw, trace, kind, rec.replace(
                    **{end: getattr(rec, end) + delta, "seq": draw(seq)}
                ))
                continue
            fields = [f for f in ("ready_time", "start_time", "end_time", "time")
                      if f in rec._fields and draw(st.booleans())]
            view[i] = rec.replace(**{f: getattr(rec, f) + delta for f in fields})
        elif op == "blacklist" and len(trace.tasks):
            # retire a worker some task was placed on
            victim = trace.tasks[draw(st.integers(0, len(trace.tasks) - 1))]
            worker = draw(st.sampled_from(victim.worker_ids or (0,)))
            rec = FaultRecord.make(
                "blacklisted", draw(_TIMES), task_id=victim.task_id,
                worker_ids=(worker,), seq=draw(seq),
            )
            _write(draw, trace, "faults", rec)
        elif op == "task":
            rec = TaskRecord.make(
                task_id=draw(tid), name=draw(_TASK_NAMES), codelet="axpy",
                variant="axpy_cpu", arch="cpu", worker_ids=draw(workers),
                submit_time=draw(_TIMES), ready_time=draw(_TIMES),
                start_time=draw(_TIMES), end_time=draw(_TIMES),
                node=draw(node), reads=tuple(draw(st.lists(hid, max_size=2))),
                writes=tuple(draw(st.lists(hid, max_size=2))),
                deps=tuple(draw(st.lists(tid, max_size=2))),
                submit_seq=draw(st.one_of(st.integers(-1, 40), st.just(BIG))),
                seq=draw(seq),
            )
            _write(draw, trace, "tasks", rec)
        elif op == "transfer":
            rec = TransferRecord.make(
                draw(hid), draw(_HANDLE_NAMES), draw(node), draw(node),
                draw(st.integers(-1, 1 << 33)), draw(_TIMES), draw(_TIMES),
                seq=draw(seq),
            )
            _write(draw, trace, "transfers", rec)
        elif op == "eviction":
            rec = EvictionRecord.make(
                draw(hid), draw(_HANDLE_NAMES), draw(node), 64, draw(_TIMES),
                draw(st.booleans()), seq=draw(seq),
            )
            _write(draw, trace, "evictions", rec)
        elif op == "access":
            rec = AccessRecord.make(
                draw(st.sampled_from([*ACCESS_KINDS, "poke"])), draw(hid),
                draw(_HANDLE_NAMES), draw(st.sampled_from(["", "r", "w", "rw"])),
                draw(_TIMES), related=tuple(draw(st.lists(hid, max_size=2))),
                seq=draw(seq),
            )
            _write(draw, trace, "accesses", rec)
        elif op == "fault":
            rec = FaultRecord.make(
                draw(st.sampled_from(
                    [*FAULT_KINDS, "kernel", "blacklisted", "gremlin"]
                )),
                draw(_TIMES),
                task_id=draw(st.one_of(st.none(), tid)),
                task_name=draw(_TASK_NAMES), worker_ids=draw(workers),
                node=draw(st.one_of(st.none(), node)),
                handle_id=draw(st.one_of(st.none(), hid)),
                handle_name=draw(_HANDLE_NAMES),
                attempt=draw(st.integers(0, 2)), seq=draw(seq),
            )
            _write(draw, trace, "faults", rec)
        elif op == "request":
            shed = draw(st.booleans())
            times = {} if shed else {
                "dispatch_time": draw(_TIMES), "start_time": draw(_TIMES),
                "end_time": draw(_TIMES),
            }
            rec = RequestRecord.make(
                "t9", draw(st.integers(0, 5)), "sgemm", draw(_TIMES), shed=shed,
                failed=draw(st.booleans()), task_id=draw(st.one_of(st.none(), tid)),
                **times,
            )
            _write(draw, trace, "requests", rec)
        elif op == "widen":
            # the shape of a trace widened before it was filled
            getattr(trace, draw(st.sampled_from(["_tasks", "_transfers"]))).refused(
                OverflowError()
            )
        else:
            name = draw(st.sampled_from(
                ["n_submitted", "n_tasks_aborted", "n_tasks_lost",
                 "n_tasks_recovered", "n_task_retries", "next_seq"]
            ))
            setattr(trace, name, draw(st.integers(0, 40)))
    return trace, machine


def _write(draw, trace: ExecutionTrace, kind: str, rec) -> None:
    """Write ``rec`` as a hot-path row (tasks, transfers), a cached
    append, or over a drawn existing row."""
    view = getattr(trace, kind)
    hows = ["append"] + (["assign"] if len(view) else [])
    if kind in ("tasks", "transfers"):
        hows.append("add")
    how = draw(st.sampled_from(hows))
    if how == "append":
        view.append(rec)
    elif how == "assign":
        view[draw(st.integers(0, len(view) - 1))] = rec
    else:
        next_seq = trace.next_seq
        trace.next_seq = rec.seq
        add = trace.add_task if kind == "tasks" else trace.add_transfer
        add(rec._astuple()[:-1])
        trace.next_seq = next_seq


# -- comparisons ------------------------------------------------------------------


def _typed(value):
    """``value`` with the type of every leaf spelled out: an int in a
    float field, a NaN and a GeneratedName all differ from their
    look-alikes."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_typed(v) for v in value]]
    return [type(value).__name__, repr(value)]


def _violations(violations) -> list:
    return [(v.rule, v.detail, v.events) for v in violations]


@given(_mutated())
@settings(max_examples=150, deadline=None)
def test_checker_reports_what_the_reference_reports(case):
    trace, machine = case
    assert _violations(check_trace(trace, machine)) == _violations(
        _ReferenceChecker(trace, machine).run()
    )


@given(_mutated())
@settings(max_examples=150, deadline=None)
def test_canonical_form_is_the_reference_canonical_form(case):
    trace, machine = case
    new, ref = trace.canonicalized(), _reference_canonicalized(trace)
    assert _typed(new.state_dict()) == _typed(ref.state_dict())
    assert json.dumps(trace_to_dict(new, machine)) == json.dumps(
        trace_to_dict(ref, machine)
    )
    # and the canonical form is a fixed point, as the reference's is
    assert _typed(new.canonicalized().state_dict()) == _typed(new.state_dict())
    # a hot-path row appended to the copy lands in its own columns
    row = TaskRecord.make(
        7, "", "axpy", "axpy_cpu", "cpu", (0,), 0.0, 0.0, 0.0, 1.0,
        reads=(1,), writes=(2,), deps=(3,),
    )._astuple()[:-1]
    for canon in (new, ref):
        canon.add_task(row)
        canon.add_transfer((4, "h", 0, 1, 64, 0.0, 1.0))
    assert _typed(new.state_dict()) == _typed(ref.state_dict())


def _unpartition_stranger(trace: ExecutionTrace) -> None:
    """A child first met in an unpartition (no copy state of its own),
    copied afterwards."""
    seq = trace.next_seq
    trace.accesses.append(AccessRecord.make(
        "unpartition", 1, "a", "", 0.0, related=(99,), seq=seq
    ))
    trace.transfers.append(TransferRecord.make(
        99, GeneratedName("data99"), HOST_NODE, 1, 64, 0.5, 0.6, seq=seq + 1
    ))
    trace.next_seq = seq + 2


def _evict_before_copy(trace: ExecutionTrace) -> None:
    """An eviction stamped after its copy was made but timed before the
    copy is ready: the live-order fallback accepts it."""
    trace.evictions[0] = trace.evictions[0].replace(time=0.0)


@pytest.mark.parametrize("craft", [_unpartition_stranger, _evict_before_copy])
def test_crafted_corner_cases_check_alike(craft):
    base, machine = _base("evict")
    trace = _copy(base)
    craft(trace)
    assert _violations(check_trace(trace, machine)) == _violations(
        _ReferenceChecker(trace, machine).run()
    )


def test_unmutated_bases_are_legal_and_canonical_alike():
    for name in _RUNS:
        trace, machine = _base(name)
        assert check_trace(trace, machine) == []
        assert _typed(trace.canonicalized().state_dict()) == _typed(
            _reference_canonicalized(trace).state_dict()
        )


def test_oracles_build_each_record_at_most_once(monkeypatch):
    """``canonicalized()`` builds no record; ``check_trace`` at most one
    per row."""
    built = []
    build = _ColumnStore.build

    def counting(store, i):
        built.append((store.cls, i))
        return build(store, i)

    monkeypatch.setattr(_ColumnStore, "build", counting)
    for name in _RUNS:
        trace, machine = _base(name)
        rows = sum(len(getattr(trace, kind)) for kind in trace.RECORD_KINDS)
        trace.canonicalized()
        assert built == []
        check_trace(trace, machine)
        assert len(built) <= rows
        built.clear()


# -- the reference checker ---------------------------------------------------------


class _ReferenceChecker:
    """``TraceChecker`` as it was when every rule family re-read the
    trace's records, verbatim but for one rule added since (a failed
    request whose task has a row): the reference the one-read checker
    must match violation for violation."""

    def __init__(
        self, trace: ExecutionTrace, machine: "Machine | MachineInfo"
    ) -> None:
        self.trace = trace
        self.info = MachineInfo.of(machine)
        self.units = {u.unit_id: u for u in self.info.units}
        self.violations: list[InvariantViolation] = []
        self._tasks_by_id = {rec.task_id: rec for rec in trace.tasks}

    # -- entry point --------------------------------------------------------

    def run(self) -> list[InvariantViolation]:
        self._check_seq_stamps()
        self._check_timelines()
        self._check_worker_exclusivity()
        self._check_link_exclusivity()
        self._check_dependencies()
        self._check_conservation()
        self._check_coherence()
        self._check_fault_path()
        return self.violations

    def _fail(self, rule: str, detail: str, events: Iterable = ()) -> None:
        self.violations.append(InvariantViolation(rule, detail, tuple(events)))

    # -- recording ----------------------------------------------------------

    def _check_seq_stamps(self) -> None:
        seen: dict[int, str] = {}
        streams = {
            "task": self.trace.tasks,
            "transfer": self.trace.transfers,
            "eviction": self.trace.evictions,
            "access": self.trace.accesses,
            "fault": self.trace.faults,
        }
        for stream, records in streams.items():
            prev = -1
            for i, rec in enumerate(records):
                label = f"{stream}@seq{rec.seq}"
                if rec.seq < 0 or rec.seq >= self.trace.next_seq:
                    self._fail(
                        "recording.seq-range",
                        f"{stream} record {i} has seq {rec.seq}, expected "
                        f"0 <= seq < {self.trace.next_seq}",
                        (label,),
                    )
                    continue
                if rec.seq in seen:
                    self._fail(
                        "recording.seq-duplicate",
                        f"seq {rec.seq} stamped on both {seen[rec.seq]} "
                        f"and {label}",
                        (seen[rec.seq], label),
                    )
                seen[rec.seq] = label
                if rec.seq <= prev:
                    self._fail(
                        "recording.seq-monotone",
                        f"{stream} stream goes back in recording order "
                        f"(seq {prev} then {rec.seq})",
                        (label,),
                    )
                prev = rec.seq

    # -- timeline sanity ----------------------------------------------------

    def _bad_time(self, value: float) -> bool:
        return not math.isfinite(value) or value < -EPS

    def _check_timelines(self) -> None:
        n_nodes = self.info.n_memory_nodes
        for rec in self.trace.tasks:
            ev = (f"task#{rec.task_id}",)
            stamps = (
                rec.submit_time,
                rec.ready_time,
                rec.start_time,
                rec.end_time,
            )
            if any(self._bad_time(t) for t in stamps):
                self._fail(
                    "timeline.task-times",
                    f"task {rec.name!r} has a negative or non-finite time "
                    f"stamp {stamps}",
                    ev,
                )
                continue
            if not (
                rec.submit_time
                <= rec.ready_time + EPS
                and rec.ready_time <= rec.start_time + EPS
                and rec.start_time <= rec.end_time + EPS
            ):
                self._fail(
                    "timeline.task-order",
                    f"task {rec.name!r} violates submit <= ready <= start "
                    f"<= end: {stamps}",
                    ev,
                )
            if not rec.worker_ids:
                self._fail(
                    "timeline.task-workers",
                    f"task {rec.name!r} completed with no workers",
                    ev,
                )
            for w in rec.worker_ids:
                if w not in self.units:
                    self._fail(
                        "timeline.task-workers",
                        f"task {rec.name!r} ran on unknown worker {w}",
                        ev,
                    )
            if rec.worker_ids and rec.worker_ids[0] in self.units:
                anchor_node = self.units[rec.worker_ids[0]].memory_node
                if rec.node != anchor_node:
                    self._fail(
                        "timeline.task-node",
                        f"task {rec.name!r} records node {rec.node} but its "
                        f"anchor worker {rec.worker_ids[0]} lives on node "
                        f"{anchor_node}",
                        ev,
                    )
        for rec in self.trace.transfers:
            ev = (f"transfer@seq{rec.seq}", f"handle#{rec.handle_id}")
            if self._bad_time(rec.start_time) or self._bad_time(rec.end_time):
                self._fail(
                    "timeline.transfer-times",
                    f"transfer of {rec.handle_name!r} has a negative or "
                    f"non-finite time stamp "
                    f"({rec.start_time}, {rec.end_time})",
                    ev,
                )
                continue
            if rec.start_time > rec.end_time + EPS:
                self._fail(
                    "timeline.transfer-order",
                    f"transfer of {rec.handle_name!r} ends before it starts "
                    f"({rec.start_time} > {rec.end_time})",
                    ev,
                )
            if rec.nbytes < 0:
                self._fail(
                    "timeline.transfer-bytes",
                    f"transfer of {rec.handle_name!r} moves {rec.nbytes} bytes",
                    ev,
                )
            if rec.src_node == rec.dst_node:
                self._fail(
                    "timeline.transfer-nodes",
                    f"transfer of {rec.handle_name!r} copies node "
                    f"{rec.src_node} onto itself",
                    ev,
                )
            for node in (rec.src_node, rec.dst_node):
                if not 0 <= node < n_nodes:
                    self._fail(
                        "timeline.transfer-nodes",
                        f"transfer of {rec.handle_name!r} touches unknown "
                        f"memory node {node}",
                        ev,
                    )
        for rec in self.trace.evictions:
            ev = (f"eviction@seq{rec.seq}", f"handle#{rec.handle_id}")
            if self._bad_time(rec.time):
                self._fail(
                    "timeline.eviction-time",
                    f"eviction of {rec.handle_name!r} at invalid time "
                    f"{rec.time}",
                    ev,
                )
            if rec.node == HOST_NODE or not 0 <= rec.node < n_nodes:
                self._fail(
                    "timeline.eviction-node",
                    f"eviction of {rec.handle_name!r} from invalid node "
                    f"{rec.node} (host memory is never evicted)",
                    ev,
                )
        for rec in self.trace.accesses:
            ev = (f"access@seq{rec.seq}", f"handle#{rec.handle_id}")
            if self._bad_time(rec.time):
                self._fail(
                    "timeline.access-time",
                    f"{rec.kind} of {rec.handle_name!r} at invalid time "
                    f"{rec.time}",
                    ev,
                )
            if rec.kind not in ACCESS_KINDS:
                self._fail(
                    "timeline.access-kind",
                    f"unknown access kind {rec.kind!r}",
                    ev,
                )
        for rec in self.trace.faults:
            ev = (f"fault@seq{rec.seq}",)
            if self._bad_time(rec.time):
                self._fail(
                    "timeline.fault-time",
                    f"{rec.kind} fault at invalid time {rec.time}",
                    ev,
                )
            if rec.kind not in FAULT_KINDS:
                self._fail(
                    "timeline.fault-kind",
                    f"unknown fault kind {rec.kind!r}",
                    ev,
                )

    # -- exclusivity --------------------------------------------------------

    def _check_worker_exclusivity(self) -> None:
        busy: dict[int, list[TaskRecord]] = {}
        for rec in self.trace.tasks:
            for w in set(rec.worker_ids):
                busy.setdefault(w, []).append(rec)
        for w, recs in sorted(busy.items()):
            recs.sort(key=lambda r: (r.start_time, r.end_time))
            for prev, cur in zip(recs, recs[1:]):
                if cur.start_time < prev.end_time - EPS:
                    self._fail(
                        "exclusivity.worker-overlap",
                        f"tasks {prev.name!r} [{prev.start_time:.9f}, "
                        f"{prev.end_time:.9f}] and {cur.name!r} "
                        f"[{cur.start_time:.9f}, {cur.end_time:.9f}] overlap "
                        f"on worker {w}",
                        (f"task#{prev.task_id}", f"task#{cur.task_id}"),
                    )

    def _check_link_exclusivity(self) -> None:
        channels: dict[tuple[int, str], list[TransferRecord]] = {}
        for rec in self.trace.transfers:
            # a recorded copy is one hop of its copy_route (a self-copy,
            # with no hop, is timeline.transfer-nodes' to report)
            route = copy_route(rec.src_node, rec.dst_node, self.info.duplex)
            if len(route) > 1:
                self._fail(
                    "exclusivity.link-route",
                    f"transfer of {rec.handle_name!r} goes device-to-device "
                    f"(node {rec.src_node} -> {rec.dst_node}) but the "
                    f"machine has no peer DMA; copies stage through host",
                    (f"transfer@seq{rec.seq}", f"handle#{rec.handle_id}"),
                )
            elif route:
                channels.setdefault(route[0][2], []).append(rec)
        for (node, direction), recs in sorted(channels.items()):
            recs.sort(key=lambda r: (r.start_time, r.end_time))
            for prev, cur in zip(recs, recs[1:]):
                if cur.start_time < prev.end_time - EPS:
                    self._fail(
                        "exclusivity.link-overlap",
                        f"transfers of {prev.handle_name!r} "
                        f"[{prev.start_time:.9f}, {prev.end_time:.9f}] and "
                        f"{cur.handle_name!r} [{cur.start_time:.9f}, "
                        f"{cur.end_time:.9f}] overlap on link {node} "
                        f"({direction})",
                        (f"transfer@seq{prev.seq}", f"transfer@seq{cur.seq}"),
                    )

    # -- dependencies -------------------------------------------------------

    def _check_dependencies(self) -> None:
        for rec in self.trace.tasks:
            for dep_id in rec.deps:
                dep = self._tasks_by_id.get(dep_id)
                if dep is None:
                    # a dependency without a record must have been aborted
                    if self.trace.n_tasks_aborted == 0:
                        self._fail(
                            "dependency.unknown",
                            f"task {rec.name!r} depends on task {dep_id} "
                            f"which never completed (and nothing was aborted)",
                            (f"task#{rec.task_id}", f"task#{dep_id}"),
                        )
                    continue
                if rec.start_time < dep.end_time - EPS:
                    self._fail(
                        "dependency.start-before-dep",
                        f"task {rec.name!r} starts at {rec.start_time:.9f} "
                        f"before its dependency {dep.name!r} ends at "
                        f"{dep.end_time:.9f}",
                        (f"task#{rec.task_id}", f"task#{dep_id}"),
                    )
                if (
                    rec.submit_seq >= 0
                    and dep.submit_seq >= 0
                    and dep.submit_seq >= rec.submit_seq
                ):
                    self._fail(
                        "dependency.submit-order",
                        f"task {rec.name!r} (submit {rec.submit_seq}) "
                        f"depends on {dep.name!r} (submit {dep.submit_seq}) "
                        f"which was submitted after it",
                        (f"task#{rec.task_id}", f"task#{dep_id}"),
                    )

    # -- conservation -------------------------------------------------------

    def _check_conservation(self) -> None:
        tr = self.trace
        if tr.n_submitted != len(tr.tasks) + tr.n_tasks_aborted:
            self._fail(
                "conservation.tasks",
                f"{tr.n_submitted} tasks submitted but {len(tr.tasks)} "
                f"completed + {tr.n_tasks_aborted} aborted",
            )
        if tr.n_tasks_lost > tr.n_tasks_aborted:
            self._fail(
                "conservation.lost-tasks",
                f"{tr.n_tasks_lost} tasks lost to faults but only "
                f"{tr.n_tasks_aborted} aborted",
            )
        if tr.n_tasks_recovered > tr.n_task_retries:
            self._fail(
                "conservation.retries",
                f"{tr.n_tasks_recovered} tasks recovered with only "
                f"{tr.n_task_retries} retries",
            )
        seen_submits: dict[int, TaskRecord] = {}
        for rec in tr.tasks:
            if rec.submit_seq < 0:
                continue
            other = seen_submits.get(rec.submit_seq)
            if other is not None:
                self._fail(
                    "conservation.double-completion",
                    f"submission {rec.submit_seq} completed twice "
                    f"({other.name!r} and {rec.name!r})",
                    (f"task#{other.task_id}", f"task#{rec.task_id}"),
                )
            seen_submits[rec.submit_seq] = rec
        n_completed = sum(1 for r in tr.requests if r.completed)
        if n_completed + tr.n_shed + tr.n_failed_requests != tr.n_requests:
            self._fail(
                "conservation.requests",
                f"{tr.n_requests} requests != {n_completed} completed + "
                f"{tr.n_shed} shed + {tr.n_failed_requests} failed",
            )
        for rec in tr.requests:
            ev = (f"request#{rec.req_id}",)
            if rec.shed:
                if rec.task_id is not None:
                    self._fail(
                        "conservation.shed-request",
                        f"shed request {rec.req_id} of tenant "
                        f"{rec.tenant!r} carries task {rec.task_id}",
                        ev + (f"task#{rec.task_id}",),
                    )
                continue
            if rec.failed:
                if rec.task_id in self._tasks_by_id:
                    self._fail(
                        "conservation.request-task",
                        f"failed request {rec.req_id} of tenant "
                        f"{rec.tenant!r} maps to task {rec.task_id}, "
                        "which completed",
                        ev + (f"task#{rec.task_id}",),
                    )
                continue
            if rec.task_id is None:
                self._fail(
                    "conservation.request-task",
                    f"completed request {rec.req_id} of tenant "
                    f"{rec.tenant!r} has no task",
                    ev,
                )
                continue
            task = self._tasks_by_id.get(rec.task_id)
            if task is None:
                self._fail(
                    "conservation.request-task",
                    f"request {rec.req_id} of tenant {rec.tenant!r} maps to "
                    f"task {rec.task_id} which never completed",
                    ev + (f"task#{rec.task_id}",),
                )
                continue
            if (
                abs(rec.start_time - task.start_time) > EPS
                or abs(rec.end_time - task.end_time) > EPS
            ):
                self._fail(
                    "conservation.request-times",
                    f"request {rec.req_id} of tenant {rec.tenant!r} records "
                    f"[{rec.start_time:.9f}, {rec.end_time:.9f}] but its "
                    f"task {task.name!r} ran [{task.start_time:.9f}, "
                    f"{task.end_time:.9f}]",
                    ev + (f"task#{rec.task_id}",),
                )

    # -- fault path ---------------------------------------------------------

    #: fault kinds marking one failed *execution attempt* of a task
    #: ("transfer" is an in-place retransmission, not a lost attempt)
    _ATTEMPT_FAULTS = ("kernel", "device_lost", "transfer_abort")

    def _check_fault_path(self) -> None:
        """Retry and blacklist discipline along the fault-recovery path.

        Attempts of one task must be sequential: each retry is placed
        after the previous attempt's fault (plus backoff), so fault
        times are non-decreasing in the attempt index and the final
        successful attempt starts no earlier than the last fault.  A
        blacklisted worker must receive no placement decided after the
        blacklist moment; placement order is host-side, so the check
        uses the triggering task's submission index (every later-
        submitted task is placed after the blacklist) together with the
        virtual ready time.
        """
        by_task: dict[int, list[FaultRecord]] = {}
        for rec in self.trace.faults:
            if rec.kind in self._ATTEMPT_FAULTS and rec.task_id is not None:
                by_task.setdefault(rec.task_id, []).append(rec)
        for task_id, recs in sorted(by_task.items()):
            recs.sort(key=lambda r: (r.attempt, r.time))
            for a, b in zip(recs, recs[1:]):
                if b.attempt == a.attempt:
                    self._fail(
                        "fault.attempt-duplicate",
                        f"task {a.task_name!r} records two attempt-"
                        f"{a.attempt} faults ({a.kind}, {b.kind})",
                        (f"fault@seq{a.seq}", f"fault@seq{b.seq}"),
                    )
                    continue
                if b.time < a.time - EPS:
                    self._fail(
                        "fault.attempt-overlap",
                        f"task {a.task_name!r}: attempt {b.attempt} faulted "
                        f"at {b.time:.9f}, before attempt {a.attempt}'s "
                        f"fault at {a.time:.9f} — retried attempts must "
                        f"not overlap in time",
                        (f"fault@seq{a.seq}", f"fault@seq{b.seq}"),
                    )
            final = self._tasks_by_id.get(task_id)
            last = recs[-1]
            if final is not None and final.start_time < last.time - EPS:
                self._fail(
                    "fault.attempt-overlap",
                    f"task {final.name!r}: final attempt starts at "
                    f"{final.start_time:.9f}, before its last fault at "
                    f"{last.time:.9f} — the successful attempt overlaps "
                    f"a failed one",
                    (f"task#{task_id}", f"fault@seq{last.seq}"),
                )
        for rec in self.trace.faults:
            if rec.kind != "blacklisted" or not rec.worker_ids:
                continue
            w = rec.worker_ids[0]
            trigger = (
                self._tasks_by_id.get(rec.task_id)
                if rec.task_id is not None
                else None
            )
            if trigger is not None and w in trigger.worker_ids:
                self._fail(
                    "fault.blacklist-placement",
                    f"task {trigger.name!r} triggered the blacklisting of "
                    f"worker {w} at t={rec.time:.9f} yet its final (post-"
                    f"blacklist) placement still uses that worker",
                    (f"task#{trigger.task_id}", f"fault@seq{rec.seq}"),
                )
            if trigger is None:
                # without the triggering task's submission index the
                # host-side placement order cannot be reconstructed
                # (eager placement runs ahead of virtual time)
                continue
            for t in self.trace.tasks:
                if w not in t.worker_ids or t.ready_time <= rec.time + EPS:
                    continue
                if t.submit_seq <= trigger.submit_seq:
                    continue  # placed before the blacklist was decided
                self._fail(
                    "fault.blacklist-placement",
                    f"worker {w} was blacklisted at t={rec.time:.9f}, but "
                    f"task {t.name!r} (ready {t.ready_time:.9f}) was placed "
                    f"on it afterwards",
                    (f"task#{t.task_id}", f"fault@seq{rec.seq}"),
                )

    # -- coherence ----------------------------------------------------------

    def _check_coherence(self) -> None:
        """Time-ordered sweep over per-(handle, node) copy validity.

        A copy of a handle becomes valid at a node through a completed
        transfer to it, a task writing there, a host write, a partition
        inheriting the parent's copies, or host-shadow recovery after
        device loss; it stops being valid through an eviction, a write
        elsewhere, unregistration, or device loss.  Every read must fall
        on a currently-valid copy whose data is ready by the read time.
        """
        events: list[tuple[float, int, int, str, object]] = []
        for rec in self.trace.tasks:
            for h in set(rec.reads):
                events.append(
                    (rec.start_time, _CONSUME, rec.seq, "task-read", (h, rec))
                )
            for h in set(rec.writes):
                events.append(
                    (rec.end_time, _CREATE, rec.seq, "create", (h, rec.node))
                )
                events.append(
                    (
                        rec.end_time,
                        _INVALIDATE,
                        rec.seq,
                        "keep-only",
                        (h, rec.node),
                    )
                )
        for rec in self.trace.transfers:
            events.append(
                (rec.start_time, _CONSUME, rec.seq, "transfer-src", rec)
            )
            events.append(
                (
                    rec.end_time,
                    _CREATE,
                    rec.seq,
                    "create",
                    (rec.handle_id, rec.dst_node),
                )
            )
        for erec in self.trace.evictions:
            events.append((erec.time, _INVALIDATE, erec.seq, "evict", erec))
        for arec in self.trace.accesses:
            if arec.kind == "acquire":
                if "r" in arec.mode:
                    events.append(
                        (arec.time, _CONSUME, arec.seq, "host-read", arec)
                    )
                if "w" in arec.mode:
                    events.append(
                        (
                            arec.time,
                            _CREATE,
                            arec.seq,
                            "create",
                            (arec.handle_id, HOST_NODE),
                        )
                    )
                    events.append(
                        (
                            arec.time,
                            _INVALIDATE,
                            arec.seq,
                            "keep-only",
                            (arec.handle_id, HOST_NODE),
                        )
                    )
            elif arec.kind == "unregister":
                events.append(
                    (
                        arec.time,
                        _INVALIDATE,
                        arec.seq,
                        "keep-only",
                        (arec.handle_id, HOST_NODE),
                    )
                )
            elif arec.kind == "partition":
                events.append(
                    (arec.time, _CONSUME, arec.seq, "partition", arec)
                )
            elif arec.kind == "unpartition":
                events.append(
                    (
                        arec.time,
                        _CREATE,
                        arec.seq,
                        "create",
                        (arec.handle_id, HOST_NODE),
                    )
                )
                events.append(
                    (arec.time, _INVALIDATE, arec.seq, "unpartition", arec)
                )
        for frec in self.trace.faults:
            if frec.kind == "replica_lost" and frec.handle_id is not None:
                events.append(
                    (
                        frec.time,
                        _CREATE,
                        frec.seq,
                        "create",
                        (frec.handle_id, HOST_NODE),
                    )
                )
            elif frec.kind == "device_lost" and frec.node is not None:
                events.append(
                    (frec.time, _INVALIDATE, frec.seq, "device-lost", frec)
                )
        #: recording seqs at which each (handle, node) copy was created,
        #: for live-order fallbacks where virtual time runs backwards
        #: relative to recording order (eagerly scheduled evictions)
        created_seq: dict[tuple[int, int], list[int]] = {}
        for _time, _phase, seq, kind, data in events:
            if kind == "create":
                created_seq.setdefault(tuple(data), []).append(seq)  # type: ignore[arg-type]
        events.sort(key=lambda e: (e[0], e[1], e[2]))

        #: per handle: memory node -> time its copy's data is ready
        state: dict[int, dict[int, float]] = {}
        #: per handle: node -> ready time of the *latest* copy ever made
        #: valid there, kept across invalidations.  The engine schedules
        #: eagerly, so a task scheduled early may (legally) read a copy
        #: that a later-scheduled task evicts at an earlier virtual time;
        #: such a read is accepted when a completed transfer/write had
        #: the data ready by the read time, even if since invalidated.
        ever: dict[int, dict[int, float]] = {}

        def valid(handle_id: int) -> dict[int, float]:
            # data starts host-resident when registered
            ever.setdefault(handle_id, {HOST_NODE: 0.0})
            return state.setdefault(handle_id, {HOST_NODE: 0.0})

        def was_ready(handle_id: int, node: int, by: float) -> bool:
            avail = ever.get(handle_id, {}).get(node)
            return avail is not None and avail <= by + EPS

        for time, _phase, _seq, kind, data in events:
            if kind == "create":
                handle_id, node = data  # type: ignore[misc]
                valid(handle_id)[node] = time
                ever[handle_id][node] = time
            elif kind == "keep-only":
                handle_id, node = data  # type: ignore[misc]
                copies = valid(handle_id)
                for n in list(copies):
                    if n != node:
                        del copies[n]
            elif kind == "task-read":
                handle_id, rec = data  # type: ignore[misc]
                copies = valid(handle_id)
                ev = (f"task#{rec.task_id}", f"handle#{handle_id}")
                if rec.node not in copies:
                    if not was_ready(handle_id, rec.node, time):
                        self._fail(
                            "coherence.read-invalid",
                            f"task {rec.name!r} reads handle {handle_id} at "
                            f"node {rec.node} where no valid copy exists "
                            f"(valid at {sorted(copies) or 'nowhere'})",
                            ev,
                        )
                elif copies[rec.node] > time + EPS:
                    self._fail(
                        "coherence.read-early",
                        f"task {rec.name!r} starts at {time:.9f} but its "
                        f"operand {handle_id} only becomes ready at node "
                        f"{rec.node} at {copies[rec.node]:.9f} — no "
                        f"completed transfer precedes the read",
                        ev,
                    )
            elif kind == "transfer-src":
                rec = data  # type: ignore[assignment]
                copies = valid(rec.handle_id)
                ev = (f"transfer@seq{rec.seq}", f"handle#{rec.handle_id}")
                if rec.src_node not in copies:
                    if not was_ready(rec.handle_id, rec.src_node, time):
                        self._fail(
                            "coherence.transfer-source",
                            f"transfer of {rec.handle_name!r} reads node "
                            f"{rec.src_node} where no valid copy exists "
                            f"(valid at {sorted(copies) or 'nowhere'})",
                            ev,
                        )
                elif copies[rec.src_node] > time + EPS:
                    self._fail(
                        "coherence.transfer-early",
                        f"transfer of {rec.handle_name!r} starts at "
                        f"{time:.9f} before its source at node "
                        f"{rec.src_node} is ready at "
                        f"{copies[rec.src_node]:.9f}",
                        ev,
                    )
            elif kind == "host-read":
                arec = data  # type: ignore[assignment]
                copies = valid(arec.handle_id)
                ev = (f"access@seq{arec.seq}", f"handle#{arec.handle_id}")
                if HOST_NODE not in copies:
                    self._fail(
                        "coherence.host-read",
                        f"host reads handle {arec.handle_name!r} with no "
                        f"valid host copy (valid at "
                        f"{sorted(copies) or 'nowhere'})",
                        ev,
                    )
                elif copies[HOST_NODE] > time + EPS:
                    self._fail(
                        "coherence.host-read-early",
                        f"host reads handle {arec.handle_name!r} at "
                        f"{time:.9f} before its host copy is ready at "
                        f"{copies[HOST_NODE]:.9f}",
                        ev,
                    )
            elif kind == "evict":
                erec = data  # type: ignore[assignment]
                copies = valid(erec.handle_id)
                ev = (f"eviction@seq{erec.seq}", f"handle#{erec.handle_id}")
                if erec.node not in copies:
                    key = (erec.handle_id, erec.node)
                    if erec.node == HOST_NODE or not any(
                        s < erec.seq for s in created_seq.get(key, ())
                    ):
                        self._fail(
                            "coherence.evict-absent",
                            f"eviction drops handle {erec.handle_name!r} "
                            f"from node {erec.node} where it holds no copy",
                            ev,
                        )
                    continue
                del copies[erec.node]
                if not copies:
                    self._fail(
                        "coherence.evict-last-copy",
                        f"eviction drops the last copy of handle "
                        f"{erec.handle_name!r} (node {erec.node}, "
                        f"{'flushed' if erec.flushed else 'unflushed'})",
                        ev,
                    )
                    copies[HOST_NODE] = time  # keep sweeping
            elif kind == "partition":
                arec = data  # type: ignore[assignment]
                parent = dict(valid(arec.handle_id))
                for child in arec.related:
                    state[child] = dict(parent)
                    ever[child] = dict(ever[arec.handle_id])
            elif kind == "unpartition":
                arec = data  # type: ignore[assignment]
                copies = valid(arec.handle_id)
                for n in list(copies):
                    if n != HOST_NODE:
                        del copies[n]
                for child in arec.related:
                    # children are dead views after the gather
                    state[child] = {}
            elif kind == "device-lost":
                frec = data  # type: ignore[assignment]
                for copies in state.values():
                    copies.pop(frec.node, None)
                    if not copies:
                        # sole replica: the engine re-sources from the
                        # host shadow (recorded as replica_lost faults)
                        copies[HOST_NODE] = time
