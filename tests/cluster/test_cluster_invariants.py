"""Cluster invariant checker: clean runs pass, tampered traces fail."""


import pytest

from repro.check.cluster import assert_cluster_legal, check_cluster
from repro.cluster import (
    Cluster,
    ClusterTenant,
    HashRing,
    HedgePolicy,
    NodeFaultModel,
)
from repro.errors import InvariantViolation


def _primary(name, n_nodes):
    return HashRing(range(n_nodes), vnodes=32).preference(name)[0]


def _chaos_cluster():
    """A run with failover retries AND suppressed duplicates on the
    trace, so every checker rule has material to inspect: alpha's
    primary crashes (no hedging, so lost attempts are genuinely
    retried), and beta's primary is slowed then partitioned (stranded
    completions are redelivered at heal time as duplicates)."""
    specs = [
        ClusterTenant("alpha", workload="sgemm", size=64, rate_hz=3000.0,
                      n_requests=120, seed=11, priority=2),
        ClusterTenant("beta", workload="bfs", size=200, rate_hz=3000.0,
                      n_requests=120, seed=22, priority=1),
    ]
    crash_victim = _primary("alpha", 4)
    part_victim = _primary("beta", 4)
    assert part_victim != crash_victim, "fixture needs distinct victims"
    c = Cluster(
        4,
        specs,
        seed=1,
        node_faults=NodeFaultModel(
            crash_at={crash_victim: 0.02},
            slow_at={part_victim: (0.010, 500.0)},
            partition_at={part_victim: (0.012, 0.040)},
        ),
        check=False,
    )
    c.run()
    return c, crash_victim


@pytest.fixture()
def chaos():
    c, victim = _chaos_cluster()
    yield c, victim
    c.shutdown()


def _rules(cluster):
    return {v.rule for v in check_cluster(cluster)}


def test_clean_chaos_run_has_no_violations(chaos):
    c, _ = chaos
    assert check_cluster(c) == []
    assert_cluster_legal(c)


def test_unknown_outcome_is_flagged(chaos):
    c, _ = chaos
    c.trace.attempts[0].outcome = "mystery"
    assert "cluster.outcome-vocabulary" in _rules(c)


def test_unresolved_attempt_is_flagged(chaos):
    c, _ = chaos
    c.trace.attempts[0].outcome = "pending"
    assert "cluster.attempt-unresolved" in _rules(c)


def test_double_applied_request_is_flagged(chaos):
    c, _ = chaos
    # promote a suppressed duplicate back to applied: the exactly-once
    # rule must notice the completed request now has two applications
    dup = next(a for a in c.trace.attempts if a.outcome == "duplicate")
    dup.outcome = "applied"
    assert "cluster.exactly-once" in _rules(c)


def test_applied_attempt_without_request_record_is_flagged(chaos):
    c, _ = chaos
    victim = next(a for a in c.trace.attempts if a.outcome == "applied")
    c.trace.requests = [
        r
        for r in c.trace.requests
        if (r.tenant, r.req_id) != (victim.tenant, victim.req_id)
    ]
    assert "cluster.exactly-once" in _rules(c)


def test_execution_on_a_crashed_node_is_flagged(chaos):
    c, crashed = chaos
    crash_t = c.nodes[crashed].crashed_at
    # forge an attempt that claims to have run on the dead node
    a = next(x for x in c.trace.attempts if x.outcome == "applied")
    a.node = crashed
    a.dispatch_time = crash_t + 1e-3
    a.task_seq = 0
    assert "cluster.dead-node-execution" in _rules(c)


def test_overlapping_failover_retry_is_flagged(chaos):
    c, _ = chaos
    # find a failed-over request (>= 2 non-hedge attempts) and pull its
    # retry's dispatch before the predecessor was resolved
    by_req = {}
    for a in c.trace.attempts:
        if not a.hedge:
            by_req.setdefault((a.tenant, a.req_id), []).append(a)
    attempts = next(v for v in by_req.values() if len(v) >= 2)
    attempts.sort(key=lambda a: a.attempt)
    attempts[1].dispatch_time = attempts[0].resolved_time - 1e-3
    assert "cluster.attempt-overlap" in _rules(c)


def test_dispatch_after_completion_is_flagged(chaos):
    c, _ = chaos
    # move an applied attempt's dispatch past its request's completion:
    # a settled request's queued copy reached an engine
    a = next(x for x in c.trace.attempts if x.outcome == "applied")
    end = next(
        r.end_time for r in c.trace.requests
        if (r.tenant, r.req_id) == (a.tenant, a.req_id)
    )
    a.dispatch_time = end + 1e-3
    assert "cluster.settled-dispatch" in _rules(c)


def test_hedge_over_the_budget_is_flagged(chaos):
    c, _ = chaos
    # the fixture does not hedge: one attempt marked as a hedge is over
    # a budget of none, and two are over a one-hedge policy
    a, b = [x for x in c.trace.attempts if x.tenant == "alpha"][:2]
    a.hedge = True
    assert "cluster.hedge-budget" in _rules(c)
    c.hedge = HedgePolicy(after_s=1e-3)
    assert "cluster.hedge-budget" not in _rules(c)
    b.tenant, b.req_id, b.hedge = a.tenant, a.req_id, True
    assert "cluster.hedge-budget" in _rules(c)


def test_assert_cluster_legal_raises_with_count(chaos):
    c, _ = chaos
    c.trace.attempts[0].outcome = "mystery"
    c.trace.attempts[1].outcome = "mystery"
    with pytest.raises(InvariantViolation, match="cluster.outcome-vocabulary"):
        assert_cluster_legal(c)


def test_node_engine_traces_are_checked_too(chaos):
    c, _ = chaos
    node = next(n for n in c.nodes.values() if n.engine.trace.tasks)
    rec = node.engine.trace.tasks[0]
    node.engine.trace.tasks[0] = rec.replace(
        end_time=rec.start_time - 1.0  # physically impossible
    )
    vs = check_cluster(c)
    assert any(f"node {node.node_id}:" in v.detail for v in vs)
