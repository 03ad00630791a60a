"""Property: every trace aggregate is the fold of the records it holds.

Hypothesis draws interleavings of task rows (gang tasks, several
architectures and variants), transfers, faults, requests, aggregate
reads, row overwrites, changes to a record a read returned, and clears.
At every read, each record must be the row its columns hold (a changed
record changes nothing in the trace), and each :class:`ExecutionTrace`
aggregate must equal a left-to-right loop over those records: floats
under ``==`` (so the sums must add in row order), dicts with the same
keys in the same first-appearance order.
"""

from hypothesis import given, settings, strategies as st

from repro.hw.description import HOST_NODE
from repro.runtime.stats import (
    ExecutionTrace,
    FaultRecord,
    RequestRecord,
    TaskRecord,
    TransferRecord,
)

_WORKERS = range(5)
_times = st.floats(min_value=0.0, max_value=1e3, allow_subnormal=False)
_tasks = st.builds(
    lambda tid, arch, variant, workers, start, dur, energy: TaskRecord.make(
        task_id=tid, name="", codelet="c", variant=variant, arch=arch,
        worker_ids=tuple(workers), submit_time=0.0, ready_time=0.0,
        start_time=start, end_time=start + dur, energy_j=energy,
    ),
    st.integers(0, 10**6),
    st.sampled_from(["cpu", "cuda", "openmp", "opencl"]),
    st.sampled_from(["v_cpu", "v_cuda", "v_omp"]),
    st.lists(st.sampled_from(_WORKERS), min_size=1, max_size=3),
    _times,
    _times,
    _times,
)
_transfers = st.builds(
    lambda src, dst, nbytes, start, dur: TransferRecord.make(
        handle_id=0, handle_name="h", src_node=src, dst_node=dst,
        nbytes=nbytes, start_time=start, end_time=start + dur,
    ),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 1 << 40),
    _times,
    _times,
)
_faults = st.builds(
    lambda kind, workers: FaultRecord.make(
        kind=kind, time=0.0, worker_ids=tuple(workers)
    ),
    st.sampled_from(["kernel", "transfer", "device_lost", "replica_lost"]),
    st.lists(st.sampled_from(_WORKERS), max_size=2),
)
_requests = st.builds(
    lambda tenant, shed, failed: RequestRecord.make(
        tenant=tenant, req_id=0, codelet="c", arrival_time=0.0,
        shed=shed, failed=failed,
    ),
    st.sampled_from(["a", "b", "c"]),
    st.booleans(),
    st.booleans(),
)
#: (kind, field, new value): a change to a record a read returned
_mutations = st.one_of(
    st.tuples(st.just("tasks"), st.just("end_time"), _times),
    st.tuples(st.just("tasks"), st.just("arch"), st.just("fpga")),
    st.tuples(st.just("transfers"), st.just("nbytes"), st.integers(0, 1 << 40)),
    st.tuples(st.just("faults"), st.just("kind"), st.just("kernel")),
    st.tuples(st.just("requests"), st.just("shed"), st.booleans()),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("task"), _tasks),
        st.tuples(st.just("transfer"), _transfers),
        st.tuples(st.just("fault"), _faults),
        st.tuples(st.just("request"), _requests),
        st.tuples(st.just("read")),
        st.tuples(st.just("set_task"), st.integers(0, 50), _tasks),
        st.tuples(st.just("set_transfer"), st.integers(0, 50), _transfers),
        st.tuples(st.just("mutate"), st.integers(0, 50), _mutations),
        st.tuples(st.sampled_from(["clear_tasks", "clear_transfers", "clear"])),
    ),
    max_size=40,
)


def _row(rec):
    """``rec``'s field values minus the trailing ``seq``: one add_* row."""
    return tuple(rec.as_dict().values())[:-1]


def _reference(trace: ExecutionTrace) -> dict:
    """Every aggregate, by one ``+=`` loop over the trace's records."""
    ref = dict(
        makespan=0.0, energy=0.0, energy_by_arch={}, busy={}, by_arch={},
        by_variant={}, n_h2d=0, n_d2h=0, nbytes=0, by_kind={}, by_worker={},
        n_shed=0, n_failed=0, tenants={},
    )
    for rec in trace.tasks:
        ref["makespan"] = max(ref["makespan"], rec.end_time)
        ref["energy"] += rec.energy_j
        by = ref["energy_by_arch"]
        by[rec.arch] = by.get(rec.arch, 0.0) + rec.energy_j
        ref["by_arch"][rec.arch] = ref["by_arch"].get(rec.arch, 0) + 1
        by = ref["by_variant"]
        by[rec.variant] = by.get(rec.variant, 0) + 1
        for w in rec.worker_ids:
            ref["busy"][w] = ref["busy"].get(w, 0.0) + rec.duration
    for rec in trace.transfers:
        ref["makespan"] = max(ref["makespan"], rec.end_time)
        ref["n_h2d"] += rec.src_node == HOST_NODE != rec.dst_node
        ref["n_d2h"] += rec.src_node != HOST_NODE == rec.dst_node
        ref["nbytes"] += rec.nbytes
    for rec in trace.faults:
        ref["by_kind"][rec.kind] = ref["by_kind"].get(rec.kind, 0) + 1
        for w in rec.worker_ids:
            ref["by_worker"][w] = ref["by_worker"].get(w, 0) + 1
    for rec in trace.requests:
        ref["n_shed"] += rec.shed
        ref["n_failed"] += rec.failed
        ref["tenants"].setdefault(rec.tenant, None)
    return ref


def _same(got: dict, want: dict) -> bool:
    """Equal values under the same keys in the same order."""
    return list(got.items()) == list(want.items())


def _check(trace: ExecutionTrace) -> None:
    for kind, cls in ExecutionTrace.RECORD_CLASSES.items():
        cols = [trace.columns(field, kind) for field in cls._fields]
        want = [cls.make(*row) for row in zip(*cols)]
        view = getattr(trace, kind)
        assert list(view) == want
        assert [view[i] for i in range(len(view))] == want
    ref = _reference(trace)
    assert trace.makespan == ref["makespan"]
    assert trace.total_energy_j == ref["energy"]
    assert _same(trace.energy_by_arch(), ref["energy_by_arch"])
    assert _same(trace.tasks_by_arch(), ref["by_arch"])
    assert _same(trace.tasks_by_variant(), ref["by_variant"])
    for w in (*_WORKERS, len(_WORKERS)):
        busy = ref["busy"].get(w, 0.0)
        assert trace.busy_time(w) == busy
        span = ref["makespan"]
        assert trace.utilisation(w) == (busy / span if span > 0 else 0.0)
    rows, workers = trace.worker_slots()
    assert list(zip(rows.tolist(), workers.tolist())) == [
        (i, w) for i, rec in enumerate(trace.tasks) for w in rec.worker_ids
    ]
    assert (trace.n_h2d, trace.n_d2h) == (ref["n_h2d"], ref["n_d2h"])
    assert trace.bytes_transferred == ref["nbytes"]
    assert _same(trace.faults_by_kind(), ref["by_kind"])
    assert _same(trace.faults_by_worker(), ref["by_worker"])
    counts = (
        trace.n_kernel_faults,
        trace.n_transfer_faults,
        trace.n_devices_lost,
        trace.n_replicas_recovered,
    )
    assert counts == tuple(
        ref["by_kind"].get(kind, 0)
        for kind in ("kernel", "transfer", "device_lost", "replica_lost")
    )
    assert trace.n_shed == ref["n_shed"]
    assert trace.n_failed_requests == ref["n_failed"]
    assert trace.tenants() == list(ref["tenants"])
    for tenant in ("a", "b", "c"):
        want = [r for r in trace.requests if r.tenant == tenant]
        got = trace.requests_for(tenant)
        assert got == want


@given(ops=_ops)
@settings(max_examples=150, deadline=None)
def test_every_aggregate_is_the_fold_of_the_records(ops):
    trace = ExecutionTrace()
    for op, *args in ops:
        if op == "task":
            trace.add_task(_row(args[0]))
        elif op == "transfer":
            trace.add_transfer(_row(args[0]))
        elif op == "fault":
            trace.record_fault(args[0])
        elif op == "request":
            trace.record_request(args[0])
        elif op == "read":
            _check(trace)
        elif op in ("set_task", "set_transfer"):
            view = trace.tasks if op == "set_task" else trace.transfers
            if len(view):
                view[args[0] % len(view)] = args[1]
        elif op == "mutate":
            kind, field, value = args[1]
            view = getattr(trace, kind)
            if len(view):
                setattr(view[args[0] % len(view)], field, value)
        elif op == "clear_tasks":
            trace.tasks.clear()
        elif op == "clear_transfers":
            trace.transfers.clear()
        else:
            trace.clear()
    _check(trace)
