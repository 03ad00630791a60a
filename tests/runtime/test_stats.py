"""Execution-trace aggregation."""

import pytest

from repro.runtime.stats import ExecutionTrace, TaskRecord, TransferRecord


def _task(tid=0, worker=(0,), start=0.0, end=1.0, arch="cpu", variant="v"):
    return TaskRecord.make(
        task_id=tid, name=f"t{tid}", codelet="c", variant=variant, arch=arch,
        worker_ids=worker, submit_time=0.0, ready_time=0.0,
        start_time=start, end_time=end,
    )


def _transfer(src=0, dst=1, nbytes=100, start=0.0, end=0.5, hid=0):
    return TransferRecord.make(
        handle_id=hid, handle_name=f"h{hid}", src_node=src, dst_node=dst,
        nbytes=nbytes, start_time=start, end_time=end,
    )


def _row(rec):
    """``rec``'s field values minus the trailing ``seq``: one add_* row."""
    return tuple(rec.as_dict().values())[:-1]


def test_empty_trace():
    trace = ExecutionTrace()
    assert trace.makespan == 0.0
    assert trace.n_tasks == 0 and trace.n_transfers == 0
    assert trace.tasks_by_arch() == {}


def test_direction_classification():
    assert _transfer(0, 1).is_h2d and not _transfer(0, 1).is_d2h
    assert _transfer(1, 0).is_d2h and not _transfer(1, 0).is_h2d
    assert not _transfer(1, 2).is_h2d and not _transfer(1, 2).is_d2h


def test_counts_and_bytes():
    trace = ExecutionTrace()
    trace.add_transfer(_row(_transfer(0, 1, 100)))
    trace.add_transfer(_row(_transfer(1, 0, 200)))
    assert trace.n_h2d == 1 and trace.n_d2h == 1
    assert trace.bytes_transferred == 300


def test_makespan_includes_transfers():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(end=1.0)))
    trace.add_transfer(_row(_transfer(end=2.5)))
    assert trace.makespan == 2.5


def test_busy_time_and_utilisation():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, worker=(0,), start=0.0, end=1.0)))
    trace.add_task(_row(_task(1, worker=(0,), start=1.0, end=3.0)))
    trace.add_task(_row(_task(2, worker=(1,), start=0.0, end=1.0)))
    assert trace.busy_time(0) == pytest.approx(3.0)
    assert trace.utilisation(0) == pytest.approx(1.0)
    assert trace.utilisation(1) == pytest.approx(1.0 / 3.0)


def test_gang_task_counts_for_every_member():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, worker=(0, 1, 2), end=2.0)))
    assert trace.busy_time(2) == pytest.approx(2.0)


def test_groupings():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, arch="cpu", variant="a")))
    trace.add_task(_row(_task(1, arch="cuda", variant="b")))
    trace.add_task(_row(_task(2, arch="cuda", variant="b")))
    assert trace.tasks_by_arch() == {"cpu": 1, "cuda": 2}
    assert trace.tasks_by_variant() == {"a": 1, "b": 2}


def test_transfers_for_handle():
    trace = ExecutionTrace()
    trace.add_transfer(_row(_transfer(hid=1)))
    trace.add_transfer(_row(_transfer(hid=2)))
    trace.add_transfer(_row(_transfer(hid=1)))
    assert len(trace.transfers_for_handle(1)) == 2


def test_summary_mentions_key_numbers():
    trace = ExecutionTrace()
    trace.add_task(_row(_task()))
    trace.add_transfer(_row(_transfer()))
    text = trace.summary()
    assert "1 tasks" in text and "1 transfers" in text


def test_clear():
    trace = ExecutionTrace()
    trace.add_task(_row(_task()))
    trace.clear()
    assert trace.n_tasks == 0


def test_derived_stats_catch_up_after_reads():
    # the incremental cache must fold in records appended *after* a read
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, end=1.0)))
    assert trace.makespan == 1.0  # primes the cache
    trace.add_task(_row(_task(1, worker=(1,), start=1.0, end=4.0, arch="cuda")))
    trace.add_transfer(_row(_transfer(0, 1, 64, end=5.0)))
    assert trace.makespan == 5.0
    assert trace.tasks_by_arch() == {"cpu": 1, "cuda": 1}
    assert trace.busy_time(1) == pytest.approx(3.0)
    assert trace.n_h2d == 1 and trace.bytes_transferred == 64


def test_derived_stats_recompute_after_clear():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, end=2.0)))
    assert trace.makespan == 2.0
    trace.clear()
    assert trace.makespan == 0.0 and trace.tasks_by_arch() == {}
    trace.add_task(_row(_task(1, end=0.5)))
    assert trace.makespan == 0.5


def test_direct_list_appends_are_folded_like_record_calls():
    trace = ExecutionTrace()
    assert trace.n_tasks == 0
    trace.tasks.append(_task(0, end=3.0))  # canonicalized()/from_dict path
    assert trace.makespan == 3.0


def test_per_codelet_counters_survive_clear_and_canonicalize():
    trace = ExecutionTrace()
    trace.n_submitted = 2
    trace.submitted_by_codelet["c"] = 2
    trace.decisions_by_codelet["c"] = 2
    trace.retries_by_codelet["c"] = 1
    trace.add_task(_row(_task(0)))
    canon = trace.canonicalized()
    assert canon.submitted_by_codelet == {"c": 2}
    assert canon.decisions_by_codelet == {"c": 2}
    assert canon.retries_by_codelet == {"c": 1}
    # and the copy is independent of the original
    trace.submitted_by_codelet["c"] = 5
    assert canon.submitted_by_codelet == {"c": 2}
    trace.clear()
    assert trace.submitted_by_codelet == {}
    assert trace.decisions_by_codelet == {}
    assert trace.retries_by_codelet == {}


def test_aggregates_follow_a_row_overwritten_after_a_read():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, worker=(0,), end=5.0)))
    trace.add_task(_row(_task(1, worker=(0,), end=1.0)))
    assert trace.makespan == 5.0 and trace.tasks_by_arch() == {"cpu": 2}
    trace.tasks[0] = _task(0, worker=(1,), start=1.0, end=2.0, arch="cuda")
    assert trace.makespan == 2.0
    assert trace.tasks_by_arch() == {"cuda": 1, "cpu": 1}
    assert trace.busy_time(0) == 1.0 and trace.busy_time(1) == 1.0


def test_aggregates_drop_rows_cleared_through_the_view():
    trace = ExecutionTrace()
    trace.add_task(_row(_task(0, end=9.0, arch="cuda")))
    trace.add_transfer(_row(_transfer(0, 1, 64, end=9.0)))
    assert trace.makespan == 9.0 and trace.n_h2d == 1
    trace.tasks.clear()
    trace.transfers.clear()
    trace.add_task(_row(_task(1, end=1.0)))
    trace.add_task(_row(_task(2, end=0.5)))
    trace.add_transfer(_row(_transfer(1, 0, 8, end=0.25)))
    trace.add_transfer(_row(_transfer(1, 2, 8, end=0.25)))
    assert trace.makespan == 1.0
    assert trace.tasks_by_arch() == {"cpu": 2}
    assert trace.busy_time(0) == 1.5
    assert (trace.n_h2d, trace.n_d2h, trace.bytes_transferred) == (0, 1, 16)
