"""Invariant checker: clean runs validate, corrupted traces pinpoint rules."""


import numpy as np
import pytest

from repro.check import InvariantViolation, assert_trace_legal, check_trace
from repro.hw.description import HOST_NODE
from repro.hw.presets import (
    cpu_only,
    platform_c1060,
    platform_c2050,
    platform_dual_c2050,
)
from repro.runtime import Runtime
from repro.runtime.stats import (
    EvictionRecord,
    ExecutionTrace,
    RequestRecord,
    TaskRecord,
    TransferRecord,
)
from repro.runtime.trace_export import MachineInfo

from tests.conftest import make_axpy_codelet



def replace(rec, **changes):
    """Records are slotted now (no dataclasses.replace); forward to the
    blessed per-record replace()."""
    return rec.replace(**changes)


def _traced_run(scheduler="dmda", n_tasks=8, n=200_000):
    """A small real run; returns (trace, machine)."""
    rt = Runtime(platform_c2050(), scheduler=scheduler, seed=0)
    cl = make_axpy_codelet()
    pairs = [
        (
            rt.register(np.zeros(n, dtype=np.float32), f"y{i}"),
            rt.register(np.ones(n, dtype=np.float32), f"x{i}"),
        )
        for i in range(3)
    ]
    for i in range(n_tasks):
        hy, hx = pairs[i % 3]
        rt.submit(cl, [(hy, "rw"), (hx, "r")], ctx={"n": n}, scalar_args=(1.0,))
    rt.wait_for_all()
    trace, machine = rt.trace, rt.machine
    rt.shutdown()
    return trace, machine


def _rules(trace, machine):
    return [v.rule for v in check_trace(trace, machine)]


# -- clean runs ---------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["eager", "dmda", "ws", "random"])
def test_clean_run_has_no_violations(scheduler):
    trace, machine = _traced_run(scheduler=scheduler)
    assert check_trace(trace, machine) == []
    assert_trace_legal(trace, machine)  # must not raise


def test_checker_accepts_machine_info_summary():
    trace, machine = _traced_run(n_tasks=4)
    assert check_trace(trace, MachineInfo.of(machine)) == []


def test_empty_trace_is_legal():
    assert check_trace(ExecutionTrace(), platform_c2050()) == []


# -- corrupting a real trace --------------------------------------------------


def test_reversed_task_times_violate_task_order():
    trace, machine = _traced_run(n_tasks=4)
    rec = trace.tasks[0]
    trace.tasks[0] = replace(
        rec, start_time=rec.end_time, end_time=rec.start_time
    )
    rules = _rules(trace, machine)
    assert "timeline.task-order" in rules


def test_non_finite_stamp_violates_task_times():
    trace, machine = _traced_run(n_tasks=4)
    trace.tasks[1] = replace(trace.tasks[1], start_time=float("nan"))
    assert "timeline.task-times" in _rules(trace, machine)


def test_unknown_worker_is_reported():
    trace, machine = _traced_run(n_tasks=4)
    trace.tasks[0] = replace(trace.tasks[0], worker_ids=(999,))
    violations = check_trace(trace, machine)
    rules = [v.rule for v in violations]
    assert "timeline.task-workers" in rules
    v = violations[rules.index("timeline.task-workers")]
    assert f"task#{trace.tasks[0].task_id}" in v.events


def test_wrong_anchor_node_is_reported():
    trace, machine = _traced_run(n_tasks=4)
    trace.tasks[0] = replace(trace.tasks[0], node=trace.tasks[0].node + 57)
    assert "timeline.task-node" in _rules(trace, machine)


def test_inflated_submit_count_breaks_conservation():
    trace, machine = _traced_run(n_tasks=4)
    trace.n_submitted += 2
    assert "conservation.tasks" in _rules(trace, machine)


def test_duplicate_seq_stamp_is_reported():
    trace, machine = _traced_run(n_tasks=4)
    trace.tasks[1] = replace(trace.tasks[1], seq=trace.tasks[0].seq)
    assert "recording.seq-duplicate" in _rules(trace, machine)


def test_out_of_range_seq_is_reported():
    trace, machine = _traced_run(n_tasks=4)
    trace.tasks[0] = replace(trace.tasks[0], seq=trace.next_seq + 5)
    assert "recording.seq-range" in _rules(trace, machine)


def test_assert_trace_legal_raises_structured_violation():
    trace, machine = _traced_run(n_tasks=4)
    rec = trace.tasks[0]
    # ready after end violates submit <= ready <= start (stamps stay
    # non-negative, so only the ordering rule fires)
    trace.tasks[0] = replace(rec, ready_time=rec.end_time + 1.0)
    with pytest.raises(InvariantViolation) as excinfo:
        assert_trace_legal(trace, machine)
    err = excinfo.value
    assert err.rule == "timeline.task-order"
    assert f"task#{rec.task_id}" in err.events
    assert err.rule in str(err)


# -- synthetic traces (full control over every record) ------------------------


def _task(
    machine,
    task_id,
    start,
    end,
    worker=0,
    seq=None,
    submit_seq=None,
    **kw,
):


    node = machine.unit(worker).memory_node
    return TaskRecord.make(
        task_id=task_id,
        name=f"t#{task_id}",
        codelet="t",
        variant="t_cpu",
        arch="cpu",
        worker_ids=(worker,),
        submit_time=0.0,
        ready_time=0.0,
        start_time=start,
        end_time=end,
        node=node,
        submit_seq=task_id if submit_seq is None else submit_seq,
        seq=task_id if seq is None else seq,
        **kw,
    )


def _synthetic(machine, tasks=(), transfers=(), evictions=(), requests=()):
    trace = ExecutionTrace()
    trace.tasks.extend(tasks)
    trace.transfers.extend(transfers)
    trace.evictions.extend(evictions)
    trace.requests.extend(requests)
    trace.n_submitted = len(trace.tasks)
    seqs = [r.seq for r in (*tasks, *transfers, *evictions)]
    trace.next_seq = max(seqs, default=-1) + 1
    return trace


def test_overlapping_tasks_on_one_worker():
    machine = cpu_only(2)
    trace = _synthetic(
        machine,
        tasks=[
            _task(machine, 0, 0.0, 1.0, worker=0),
            _task(machine, 1, 0.5, 1.5, worker=0),
        ],
    )
    violations = check_trace(trace, machine)
    rules = [v.rule for v in violations]
    assert rules == ["exclusivity.worker-overlap"]
    assert violations[0].events == ("task#0", "task#1")


def test_gang_tasks_occupy_every_listed_worker():
    machine = cpu_only(4)
    gang = replace(
        _task(machine, 0, 0.0, 1.0, worker=0), worker_ids=(0, 1, 2, 3)
    )
    solo = _task(machine, 1, 0.2, 0.8, worker=3)
    trace = _synthetic(machine, tasks=[gang, solo])
    assert "exclusivity.worker-overlap" in _rules(trace, machine)


def test_start_before_dependency_end():
    machine = cpu_only(2)
    trace = _synthetic(
        machine,
        tasks=[
            _task(machine, 0, 1.0, 2.0, worker=0),
            replace(_task(machine, 1, 0.5, 3.0, worker=1), deps=(0,)),
        ],
    )
    assert "dependency.start-before-dep" in _rules(trace, machine)


def test_unknown_dependency_without_aborts():
    machine = cpu_only(1)
    trace = _synthetic(
        machine,
        tasks=[replace(_task(machine, 0, 0.0, 1.0), deps=(42,))],
    )
    assert "dependency.unknown" in _rules(trace, machine)
    # with aborted tasks the missing dependency is explainable
    trace.n_tasks_aborted = 1
    trace.n_submitted += 1
    assert "dependency.unknown" not in _rules(trace, machine)


def test_dependency_submitted_after_dependent():
    machine = cpu_only(2)
    trace = _synthetic(
        machine,
        tasks=[
            _task(machine, 0, 0.0, 1.0, worker=0, submit_seq=7),
            replace(
                _task(machine, 1, 1.0, 2.0, worker=1, submit_seq=3), deps=(0,)
            ),
        ],
    )
    assert "dependency.submit-order" in _rules(trace, machine)


def test_double_completion_of_one_submission():
    machine = cpu_only(2)
    trace = _synthetic(
        machine,
        tasks=[
            _task(machine, 0, 0.0, 1.0, worker=0, submit_seq=0),
            _task(machine, 1, 1.0, 2.0, worker=1, submit_seq=0),
        ],
    )
    # conservation sees two completions for submission 0
    assert "conservation.double-completion" in _rules(trace, machine)


def test_device_read_without_transfer_is_incoherent():
    machine = platform_c2050()
    gpu = machine.gpu_units[0]
    bad = replace(
        _task(machine, 0, 1.0, 2.0, worker=gpu.unit_id), reads=(7,)
    )
    trace = _synthetic(machine, tasks=[bad])
    violations = check_trace(trace, machine)
    rules = [v.rule for v in violations]
    assert "coherence.read-invalid" in rules
    v = violations[rules.index("coherence.read-invalid")]
    assert "handle#7" in v.events


def test_device_read_with_transfer_is_coherent():
    machine = platform_c2050()
    gpu = machine.gpu_units[0]
    node = gpu.memory_node
    staged = TransferRecord.make(
        handle_id=7,
        handle_name="data7",
        src_node=HOST_NODE,
        dst_node=node,
        nbytes=64,
        start_time=0.0,
        end_time=0.5,
        seq=0,
    )
    ok = replace(
        _task(machine, 0, 1.0, 2.0, worker=gpu.unit_id, seq=1), reads=(7,)
    )
    trace = _synthetic(machine, tasks=[ok], transfers=[staged])
    assert check_trace(trace, machine) == []


def test_read_before_transfer_completes_is_illegal():
    machine = platform_c2050()
    gpu = machine.gpu_units[0]
    staged = TransferRecord.make(
        handle_id=7,
        handle_name="data7",
        src_node=HOST_NODE,
        dst_node=gpu.memory_node,
        nbytes=64,
        start_time=0.0,
        end_time=5.0,
        seq=0,
    )
    early = replace(
        _task(machine, 0, 1.0, 2.0, worker=gpu.unit_id, seq=1), reads=(7,)
    )
    trace = _synthetic(machine, tasks=[early], transfers=[staged])
    # at the read time no completed transfer has made the copy valid
    assert "coherence.read-invalid" in _rules(trace, machine)


def test_transfer_from_node_without_copy():
    machine = platform_c2050()
    node = machine.gpu_units[0].memory_node
    ghost = TransferRecord.make(
        handle_id=3,
        handle_name="data3",
        src_node=node,
        dst_node=HOST_NODE,
        nbytes=64,
        start_time=0.0,
        end_time=0.5,
        seq=0,
    )
    trace = _synthetic(machine, transfers=[ghost])
    assert "coherence.transfer-source" in _rules(trace, machine)


def test_self_transfer_is_malformed():
    machine = platform_c2050()
    loop = TransferRecord.make(
        handle_id=3,
        handle_name="data3",
        src_node=HOST_NODE,
        dst_node=HOST_NODE,
        nbytes=64,
        start_time=0.0,
        end_time=0.5,
        seq=0,
    )
    trace = _synthetic(machine, transfers=[loop])
    assert "timeline.transfer-nodes" in _rules(trace, machine)


@pytest.mark.parametrize(
    "platform, second_dst_host, fires",
    [
        (platform_c2050, False, True),  # one direction: one channel
        (platform_c1060, True, True),  # half duplex: one shared channel
        (platform_c2050, True, False),  # duplex: a channel per direction
    ],
    ids=["c2050-h2d-h2d", "c1060-h2d-d2h", "c2050-h2d-d2h"],
)
def test_overlapping_transfers_on_one_link_channel(
    platform, second_dst_host, fires
):
    machine = platform()
    node = machine.gpu_units[0].memory_node

    def copy(handle_id, start, end, seq, to_host=False):
        return TransferRecord.make(
            handle_id=handle_id,
            handle_name=f"data{handle_id}",
            src_node=node if to_host else HOST_NODE,
            dst_node=HOST_NODE if to_host else node,
            nbytes=64,
            start_time=start,
            end_time=end,
            seq=seq,
        )

    trace = _synthetic(
        machine,
        transfers=[copy(1, 0.0, 1.0, 0), copy(2, 0.5, 1.5, 1, second_dst_host)],
    )
    assert ("exclusivity.link-overlap" in _rules(trace, machine)) is fires


def test_device_to_device_record_breaks_the_link_route():
    # the engine stages a device-to-device copy through the host as two
    # recorded hops; a single d2d record has no DMA channel to occupy
    machine = platform_dual_c2050()
    src, dst = (u.memory_node for u in machine.gpu_units)
    peer = TransferRecord.make(
        handle_id=4,
        handle_name="data4",
        src_node=src,
        dst_node=dst,
        nbytes=64,
        start_time=0.0,
        end_time=0.5,
        seq=0,
    )
    violations = check_trace(_synthetic(machine, transfers=[peer]), machine)
    rules = [v.rule for v in violations]
    assert "exclusivity.link-route" in rules
    v = violations[rules.index("exclusivity.link-route")]
    assert v.events == ("transfer@seq0", "handle#4")


def test_eviction_from_node_without_copy():
    machine = platform_c2050()
    node = machine.gpu_units[0].memory_node
    phantom = EvictionRecord.make(
        handle_id=3,
        handle_name="data3",
        node=node,
        nbytes=64,
        time=1.0,
        flushed=False,
        seq=0,
    )
    trace = _synthetic(machine, evictions=[phantom])
    assert "coherence.evict-absent" in _rules(trace, machine)


def test_evicting_the_last_copy_is_illegal():
    machine = platform_c2050()
    gpu = machine.gpu_units[0]
    node = gpu.memory_node
    # a task writes handle 5 on the GPU (sole owner), then the copy is
    # dropped without a flush home: the data is gone
    writer = replace(
        _task(machine, 0, 0.0, 1.0, worker=gpu.unit_id, seq=0), writes=(5,)
    )
    drop = EvictionRecord.make(
        handle_id=5,
        handle_name="data5",
        node=node,
        nbytes=64,
        time=2.0,
        flushed=False,
        seq=1,
    )
    trace = _synthetic(machine, tasks=[writer], evictions=[drop])
    assert "coherence.evict-last-copy" in _rules(trace, machine)


def test_host_eviction_is_invalid():
    machine = platform_c2050()
    bad = EvictionRecord.make(
        handle_id=5,
        handle_name="data5",
        node=HOST_NODE,
        nbytes=64,
        time=1.0,
        flushed=False,
        seq=0,
    )
    trace = _synthetic(machine, evictions=[bad])
    assert "timeline.eviction-node" in _rules(trace, machine)


# -- serving records ----------------------------------------------------------


def test_shed_request_with_task_breaks_conservation():
    machine = cpu_only(1)
    shed = RequestRecord.make(
        tenant="a", req_id=0, codelet="c", arrival_time=0.0, shed=True,
        task_id=12,
    )
    trace = _synthetic(machine, requests=[shed])
    assert "conservation.shed-request" in _rules(trace, machine)


def test_completed_request_must_map_to_completed_task():
    machine = cpu_only(1)
    orphan = RequestRecord.make(
        tenant="a", req_id=0, codelet="c", arrival_time=0.0,
        dispatch_time=0.1, start_time=0.2, end_time=0.3, task_id=42,
    )
    trace = _synthetic(machine, requests=[orphan])
    assert "conservation.request-task" in _rules(trace, machine)


def test_failed_request_whose_task_completed_is_reported():
    """A failed request keeps its task's id; that task must have left
    no row (it was never placed)."""
    machine = cpu_only(1)
    failed = RequestRecord.make(
        tenant="a", req_id=0, codelet="t", arrival_time=0.0,
        dispatch_time=0.5, failed=True, task_id=0,
    )
    lost = failed.replace(req_id=1, task_id=1)
    trace = _synthetic(
        machine, tasks=[_task(machine, 0, 1.0, 2.0)], requests=[failed, lost]
    )
    flagged = [
        v.events for v in check_trace(trace, machine)
        if v.rule == "conservation.request-task"
    ]
    assert flagged == [("request#0", "task#0")]


def test_request_task_time_mismatch_is_reported():
    machine = cpu_only(1)
    task = _task(machine, 0, 1.0, 2.0)
    req = RequestRecord.make(
        tenant="a", req_id=0, codelet="t", arrival_time=0.0,
        dispatch_time=0.5, start_time=1.0, end_time=9.0, task_id=0,
    )
    trace = _synthetic(machine, tasks=[task], requests=[req])
    assert "conservation.request-times" in _rules(trace, machine)
