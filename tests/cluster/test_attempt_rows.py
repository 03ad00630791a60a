"""Cluster attempts are typed columns read back as write-through rows."""

import math
import pickle

from repro.cluster import AttemptRecord, ClusterTrace


def _attempt(**changes):
    fields = dict(tenant="t", req_id=3, attempt=0, node=1, dispatch_time=0.5)
    return AttemptRecord.make(**{**fields, **changes})


def test_rows_read_back_the_record_with_its_defaults():
    trace = ClusterTrace()
    trace.attempts.append(_attempt())
    (a,) = trace.attempts
    assert isinstance(a, AttemptRecord)
    assert (a.tenant, a.req_id, a.node, a.dispatch_time) == ("t", 3, 1, 0.5)
    assert a.hedge is False and a.outcome == "pending" and a.batch_size == 1
    assert a.task_seq is None and not a.ran
    assert math.isnan(a.end_time) and math.isnan(a.resolved_time)
    assert repr(trace.to_dict()["attempts"]) == repr([a.as_dict()])


def test_an_assignment_writes_through_to_every_later_read():
    trace = ClusterTrace()
    trace.attempts.extend([_attempt(), _attempt(attempt=1, hedge=True)])
    held = trace.attempts[1]
    held.outcome = "applied"
    held.task_seq = 7
    held.end_time = 2.0
    seen = next(a for a in trace.attempts if a.hedge)
    assert (seen.outcome, seen.task_seq, seen.end_time) == ("applied", 7, 2.0)
    assert seen.ran and seen is not held


def test_rows_of_one_store_compare_by_row():
    trace = ClusterTrace()
    trace.attempts.extend([_attempt(), _attempt()])  # equal values
    first, second = trace.attempts
    pending = [first, second]
    assert trace.attempts[1] in pending and first != second
    pending.remove(trace.attempts[1])
    assert pending == [first]
    # across stores, rows compare by value
    other = ClusterTrace()
    other.attempts.append(_attempt(end_time=1.0, start_time=0.75,
                                   deliver_time=1.0, resolved_time=1.0))
    trace.attempts[0].start_time = 0.75
    for f in ("end_time", "deliver_time", "resolved_time"):
        setattr(trace.attempts[0], f, 1.0)
    assert other.attempts[0] == trace.attempts[0]


def test_replace_and_pickle_give_plain_records():
    trace = ClusterTrace()
    trace.attempts.append(_attempt(start_time=1.0, end_time=2.0,
                                   deliver_time=2.0, resolved_time=2.0))
    row = trace.attempts[0]
    moved = row.replace(node=5)
    assert type(moved) is AttemptRecord and moved.node == 5 and row.node == 1
    clone = pickle.loads(pickle.dumps(row))
    assert type(clone) is AttemptRecord
    assert clone == moved.replace(node=1)
    trace.attempts[0] = moved
    assert trace.attempts[0].node == 5
    # a row of another trace is accepted as the record it reads back as
    other = ClusterTrace()
    other.attempts.extend(trace.attempts)
    other.attempts[0] = trace.attempts[0]
    assert other.attempts[0] == trace.attempts[0] and len(other.attempts) == 1
