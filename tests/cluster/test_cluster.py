"""Cluster end-to-end: failover, hedging, brown-out, drain, replay."""

import pytest

from repro.check.cluster import check_cluster
from repro.cluster import (
    BrownoutPolicy,
    Cluster,
    ClusterTenant,
    HashRing,
    HedgePolicy,
    NodeFaultModel,
    chaos_schedule,
)
from repro.cluster.node import ClusterNode
from repro.cluster.router import HEDGE_WINDOW
from repro.errors import PeppherError
from repro.experiments.cluster import (
    build_cluster,
    chaos_tenant_mix,
    format_chaos_ablation,
    run_chaos_ablation,
    targeted_chaos,
)
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime.engine import RecoveryPolicy
from repro.serve.batching import BatchPolicy
from repro.serve.client import TenantSpec


def tenants(n_requests=150, rate_hz=3000.0):
    return [
        ClusterTenant("alpha", workload="sgemm", size=64, rate_hz=rate_hz,
                      n_requests=n_requests, seed=11, priority=2, slo_ms=5.0),
        ClusterTenant("beta", workload="bfs", size=200, rate_hz=rate_hz,
                      n_requests=n_requests, seed=22, priority=1),
        ClusterTenant("gamma", workload="pathfinder", size=48, rate_hz=rate_hz,
                      n_requests=n_requests // 2, seed=33, priority=0),
    ]


def primary_of(name, n_nodes, vnodes=32):
    """The node the router will prefer for ``name`` (same ring math)."""
    return HashRing(range(n_nodes), vnodes=vnodes).preference(name)[0]


def make_cluster(n_nodes=4, specs=None, **kw):
    defaults = dict(seed=1, check=True)
    defaults.update(kw)
    return Cluster(n_nodes, specs or tenants(), **defaults)


def events(trace, kind, node=None):
    return [
        e for e in trace.events
        if e.kind == kind and (node is None or e.node == node)
    ]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_tenant_validation():
    with pytest.raises(PeppherError, match="priority"):
        ClusterTenant("t", priority=-1)
    with pytest.raises(PeppherError, match="slo_ms"):
        ClusterTenant("t", slo_ms=0.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        HedgePolicy(after_s=0.0)
    with pytest.raises(ValueError):
        HedgePolicy(after_s=1e-3, max_hedges=0)
    with pytest.raises(ValueError):
        BrownoutPolicy(high_water=1.0, low_water=2.0)


def test_cluster_rejects_fault_plan_naming_unknown_node():
    with pytest.raises(ValueError, match="crash_at names node"):
        make_cluster(
            n_nodes=2, node_faults=NodeFaultModel(crash_at={5: 1.0})
        )


def test_run_and_drain_are_one_shot():
    c = make_cluster(specs=tenants(n_requests=10))
    c.run()
    with pytest.raises(PeppherError, match="already ran"):
        c.run()
    with pytest.raises(PeppherError, match="before run"):
        c.drain(0, 0.01)
    c.shutdown()


# ---------------------------------------------------------------------------
# healthy path
# ---------------------------------------------------------------------------

def test_healthy_run_completes_everything():
    c = make_cluster()
    tr = c.run()
    offered = sum(s.n_requests for s in tenants())
    assert len(tr.requests) == offered
    assert all(r.outcome == "completed" for r in tr.requests)
    assert not events(tr, "dead") and not events(tr, "failover")
    assert sorted(c.alive_nodes) == [0, 1, 2, 3]
    c.shutdown()


def test_tenants_route_to_their_ring_primary_when_healthy():
    c = make_cluster()
    tr = c.run()
    for name in ("alpha", "beta", "gamma"):
        served = {r.served_by for r in tr.requests if r.tenant == name}
        assert served == {primary_of(name, 4)}
    c.shutdown()


# ---------------------------------------------------------------------------
# bulk (planning) policies
# ---------------------------------------------------------------------------

def test_node_submit_batch_places_every_task_under_a_bulk_policy():
    """A bulk policy defers each task at submit; the node flushes the
    batch as one planning window, so every task it returns is placed
    (an unplaced one has no end time for the router to wait on)."""
    node = ClusterNode(0, platform_c2050(), scheduler="lookahead")
    spec = TenantSpec("t", workload="sgemm", size=48, rate_hz=None,
                      n_requests=3)
    batch = [node.make_request(spec, i, 0.0) for i in range(3)]
    out = node.submit_batch(batch, 0.0)
    placed = [
        task.chosen_variant is not None and task.end_time >= task.start_time
        for _, task in out
    ]
    node.close()  # shutting down would flush the window itself
    assert [req for req, _ in out] == batch
    assert placed == [True] * 3


@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
def test_lookahead_cluster_settles_every_request(faulty):
    """Under a bulk policy every request settles and the run is legal.
    With device retries exhausted, a node's window flush re-raises the
    first recovery failure: the requests whose tasks it left unplaced
    fail, the rest complete."""
    specs = [
        ClusterTenant("a", workload="sgemm", size=64, rate_hz=4000.0,
                      n_requests=60, seed=1),
        ClusterTenant("b", workload="bfs", size=200, rate_hz=4000.0,
                      n_requests=40, seed=2),
    ]
    faults = (
        dict(device_faults=FaultModel(kernel_fault_rate=0.3, seed=5),
             recovery=RecoveryPolicy(max_retries=0))
        if faulty else {}
    )
    c = make_cluster(n_nodes=3, specs=specs, scheduler="lookahead", **faults)
    tr = c.run()
    outcomes = [r.outcome for r in tr.requests]
    assert len(outcomes) == 100
    assert set(outcomes) == ({"completed", "failed"} if faulty else {"completed"})
    assert check_cluster(c) == []
    c.shutdown()


# ---------------------------------------------------------------------------
# crash and failover
# ---------------------------------------------------------------------------

def test_crash_is_detected_and_failed_over():
    victim = primary_of("alpha", 4)
    c = make_cluster(
        node_faults=NodeFaultModel(crash_at={victim: 0.02}),
    )
    tr = c.run()
    dead = events(tr, "dead", victim)
    assert len(dead) == 1 and dead[0].time > 0.02
    assert events(tr, "failover")
    assert all(r.outcome == "completed" for r in tr.requests)
    assert any(r.failed_over for r in tr.requests if r.tenant == "alpha")
    assert victim not in c.alive_nodes
    # after the death was declared, alpha is served elsewhere
    t_dead = dead[0].time
    late = [
        r for r in tr.requests
        if r.tenant == "alpha" and r.arrival_time > t_dead
    ]
    assert late and all(r.served_by != victim for r in late)
    c.shutdown()


def test_crashed_node_executes_nothing_after_the_crash():
    victim = primary_of("alpha", 4)
    c = make_cluster(node_faults=NodeFaultModel(crash_at={victim: 0.02}))
    c.run()
    engine_trace = c.nodes[victim].engine.trace
    assert engine_trace.tasks, "victim never served — test is vacuous"
    assert all(rec.start_time <= 0.02 + 1e-9 for rec in engine_trace.tasks)
    c.shutdown()


def test_exactly_once_under_crash_and_hedging():
    victim = primary_of("alpha", 4)
    c = make_cluster(
        node_faults=NodeFaultModel(crash_at={victim: 0.02}),
        hedge=HedgePolicy(after_s=2e-3),
    )
    tr = c.run()
    applied = {}
    for a in tr.attempts:
        if a.outcome == "applied":
            applied[(a.tenant, a.req_id)] = applied.get(
                (a.tenant, a.req_id), 0
            ) + 1
    for r in tr.requests:
        want = 1 if r.outcome == "completed" else 0
        assert applied.get((r.tenant, r.req_id), 0) == want
    assert not c._reqs, "finished requests left router state behind"
    c.shutdown()


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_heals_and_node_rejoins():
    victim = primary_of("alpha", 4)
    c = make_cluster(
        node_faults=NodeFaultModel(partition_at={victim: (0.015, 0.035)}),
    )
    tr = c.run()
    assert events(tr, "partition", victim)
    assert events(tr, "heal", victim)
    assert events(tr, "dead", victim), "partition was never detected"
    assert events(tr, "alive", victim), "healed node never rejoined"
    assert all(r.outcome == "completed" for r in tr.requests)
    assert victim in c.alive_nodes
    c.shutdown()


def test_partition_redelivery_is_suppressed_not_double_applied():
    """Work stranded on a partitioned node completes and is redelivered
    at heal time — after failover already answered.  The redelivery
    must be recorded as a duplicate, never applied twice.

    The node is slowed first so its in-flight work at partition start
    actually straddles the window (healthy tasks are microseconds)."""
    victim = primary_of("alpha", 4)
    c = make_cluster(
        node_faults=NodeFaultModel(
            slow_at={victim: (0.010, 500.0)},
            partition_at={victim: (0.012, 0.040)},
        ),
    )
    tr = c.run()
    dups = [a for a in tr.attempts if a.outcome == "duplicate"]
    assert dups, "no duplicate deliveries — the scenario did not trigger"
    assert events(tr, "duplicate")
    assert not c._reqs, "finished requests left router state behind"
    c.shutdown()


def test_redelivery_to_a_retired_key_is_recorded_as_duplicate():
    """By heal time the stranded requests were failed over, completed
    and their router state dropped; the redelivered completion is
    recorded from its attempt record alone."""
    victim = primary_of("alpha", 4)
    c = make_cluster(
        node_faults=NodeFaultModel(
            slow_at={victim: (0.010, 500.0)},
            partition_at={victim: (0.012, 0.040)},
        ),
        metrics=True,
    )
    retired = []
    deliver = c._deliver

    def spy(node, attempt, t):
        key = (attempt.tenant, attempt.req_id)
        if key in c._reqs:
            return deliver(node, attempt, t)
        # the metrics fold the trace on read: collect before each read
        dup = c.metrics.duplicates
        c.metrics.collect()
        before = dup.value(tenant=attempt.tenant)
        deliver(node, attempt, t)
        c.metrics.collect()
        assert dup.value(tenant=attempt.tenant) == before + 1
        assert key not in c._reqs
        retired.append(attempt)

    c._deliver = spy
    tr = c.run()
    assert retired, "no redelivery reached a retired key"
    for a in retired:
        assert a.outcome == "duplicate" and a.node == victim
        assert a.deliver_time == 0.040
        (ev,) = [
            e for e in events(tr, "duplicate", victim)
            if (e.tenant, e.req_id) == (a.tenant, a.req_id)
        ]
        assert ev.time == a.deliver_time and ev.detail == "late response"
    c.metrics.collect()
    total = sum(
        c.metrics.duplicates.value(tenant=s.name) for s in tenants()
    )
    assert total == len(events(tr, "duplicate"))
    assert not c._reqs
    c.shutdown()


def test_partition_healing_before_detection_resolves_blackholed_requests():
    """A 2.5 ms partition heals before the detector declares the node
    dead.  Dispatches blackholed during it never reached the engine; the
    heal resolves them as lost and fails them over, so the run ends
    (it used to keep scheduling heartbeats forever)."""
    n, rate = 120, 12_000.0
    specs = chaos_tenant_mix(n, rate, seed=0)
    at, window = 0.5 * n / rate, 0.25 * n / rate
    plan = targeted_chaos(8, specs, at=at, partition_for=window)
    (victim,) = plan.crash_at
    chaos = NodeFaultModel(
        slow_at=plan.slow_at,
        partition_at={**plan.partition_at, victim: (at, at + window)},
    )
    c = build_cluster(8, specs, 0, chaos, False)
    # without hedging: a hedged copy is live when the heal resolves the
    # blackholed one, and the heal path fails nothing over
    c.hedge = None
    tr = c.run()
    assert not events(tr, "dead", victim), "partition was detected first"
    healed = [
        e for e in events(tr, "failover", victim)
        if e.detail == "blackholed by partition"
    ]
    assert healed, "no dispatch was blackholed — the scenario did not trigger"
    assert len(tr.requests) == sum(s.n_requests for s in specs)
    assert all(r.outcome == "completed" for r in tr.requests)
    assert check_cluster(c) == []
    c.shutdown()


def test_attempts_on_a_node_never_declared_dead_resolve_at_the_end():
    """Three of five nodes drain at once and one of the two left is cut
    off for good.  Its dispatches are blackholed, their hedges complete
    on the last node, and the heartbeats stop with every request settled
    before the silent node is declared dead: the end of the run resolves
    its attempts as lost and drops every state (shrunk from a draw of
    ``test_prop_cluster.py``)."""
    c = make_cluster(
        n_nodes=5,
        specs=tenants(n_requests=20, rate_hz=2000.0),
        replication=1,
        node_faults=NodeFaultModel(partition_at={2: (0.0078125, float("inf"))}),
        hedge=HedgePolicy(after_s=1.2e-3),
        seed=0,
    )
    for nid in (0, 1, 3):
        c.drain(nid, at=0.0)
    tr = c.run()
    assert not events(tr, "dead")
    assert any(a.node == 2 and a.outcome == "lost" for a in tr.attempts)
    assert all(r.outcome == "completed" for r in tr.requests)
    assert not c._reqs
    c.shutdown()


# ---------------------------------------------------------------------------
# stragglers and hedging
# ---------------------------------------------------------------------------

def test_hedge_timer_after_completion_is_a_no_op():
    """On a healthy cluster almost every request finishes inside twice
    its tenant's slowest recent clean response, so its hedge timer fires after
    it completed and its state was dropped: such a timer records
    nothing.  The requests that were hedged fired theirs while live."""
    c = make_cluster(hedge=HedgePolicy(after_s=2e-3))
    late = []
    on_hedge = c._on_hedge

    def spy(t, key):
        if key in c._reqs:
            return on_hedge(t, key)
        n_events, n_attempts = len(c.trace.events), len(c.trace.attempts)
        on_hedge(t, key)
        assert key not in c._reqs
        assert len(c.trace.events) == n_events
        assert len(c.trace.attempts) == n_attempts
        late.append(key)

    c._on_hedge = spy
    tr = c.run()
    unhedged = sorted(
        (r.tenant, r.req_id) for r in tr.requests if not r.n_hedges
    )
    assert sorted(late) == unhedged
    assert len(events(tr, "hedge")) == len(tr.requests) - len(unhedged)
    assert all(r.outcome == "completed" for r in tr.requests)
    c.shutdown()


@pytest.mark.parametrize("fault", ["drain", "partition"])
def test_requeued_hedge_copy_of_a_finished_request_stays_retired(fault):
    """Hedges queue behind a busy second replica; their primaries finish
    first.  When that replica drains (or is declared dead), the queued
    copies of finished requests are dropped without reviving state."""
    primary, second, _ = HashRing(range(3), vnodes=32).preference("alpha")
    faults = {"slow_at": {primary: (0.01, 50.0), second: (0.005, 50.0)}}
    if fault == "partition":
        faults["partition_at"] = {second: (0.02, 0.06)}
    c = make_cluster(
        n_nodes=3,
        node_faults=NodeFaultModel(**faults),
        hedge=HedgePolicy(after_s=2e-3),
        max_inflight=1,
    )
    if fault == "drain":
        c.drain(second, at=0.02)
    requeued = []
    hooks = {"drain": "_start_drain", "partition": "_handle_death"}
    original = getattr(c, hooks[fault])

    def spy(node, t):
        nid = node if fault == "partition" else node.node_id
        finished = [
            (r.tenant, r.req_id)
            for r in c.nodes[nid].coalescer.iter_requests()
            if c._reqs[(r.tenant, r.req_id)].finalized
        ]
        original(node, t)
        assert not any(key in c._reqs for key in finished)
        requeued.extend((key, t) for key in finished)

    setattr(c, hooks[fault], spy)
    tr = c.run()
    assert requeued, "no finished request had a queued copy"
    for (tenant, req_id), t in requeued:
        assert not [
            a for a in tr.attempts
            if (a.tenant, a.req_id) == (tenant, req_id)
            and a.dispatch_time >= t
        ]
    assert not c._reqs
    c.shutdown()


def test_straggler_triggers_hedges_and_all_requests_complete():
    victim = primary_of("alpha", 4)
    c = make_cluster(
        node_faults=NodeFaultModel(slow_at={victim: (0.01, 200.0)}),
        hedge=HedgePolicy(after_s=2e-3),
    )
    tr = c.run()
    assert events(tr, "slowdown", victim)
    hedges = [a for a in tr.attempts if a.hedge]
    assert hedges, "no hedges fired against a 200x straggler"
    assert all(a.node != victim for a in hedges), (
        "a hedge was dispatched to the straggler itself"
    )
    assert all(r.outcome == "completed" for r in tr.requests)
    c.shutdown()


def test_a_copy_waiting_behind_a_straggler_is_hedged():
    """With one dispatch slot per node, requests queue behind a 100x
    straggler.  The hedge timer covers a copy still in the batch queue:
    every request whose first copy waited there longer than ``after_s``
    gets exactly one hedge, served by another replica within ``after_s``
    plus that replica's service time."""
    after = 2e-3
    primary = primary_of("alpha", 3)
    c = make_cluster(
        n_nodes=3,
        specs=[ClusterTenant("alpha", workload="sgemm", size=64,
                             rate_hz=2000.0, n_requests=60, seed=11)],
        node_faults=NodeFaultModel(slow_at={primary: (0.0, 100.0)}),
        hedge=HedgePolicy(after_s=after),
        batching=BatchPolicy(max_batch=1),
        max_inflight=1,
    )
    tr = c.run()
    left_queue = {a.req_id: a.dispatch_time for a in tr.attempts
                  if a.node == primary}
    waited = [
        r for r in tr.requests
        if left_queue.get(r.req_id, float("inf")) - r.dispatch_time > after
    ]
    assert len(waited) >= 10
    service = max(
        a.end_time - a.dispatch_time
        for a in tr.attempts
        if a.node != primary and a.ran
    )
    for r in waited:
        assert r.n_hedges == 1, r.req_id
        assert r.served_by != primary, r.req_id
        assert r.end_time - r.dispatch_time <= after + service + 1e-12, r.req_id
    c.shutdown()


def test_an_overdue_hedge_hedges_again_on_the_spillover_node():
    """The primary is cut off and the replica straggles 1000x.  The
    first hedge lands on the straggler and is overdue too, so the timer
    it re-armed races the spillover node, which serves the request.
    Heartbeats are slow enough that the primary is never declared dead
    while the request is open."""
    primary, replica, spill = HashRing(range(3), vnodes=32).preference("alpha")
    c = make_cluster(
        n_nodes=3,
        specs=[ClusterTenant("alpha", workload="sgemm", size=64,
                             rate_hz=1000.0, n_requests=1, seed=11)],
        node_faults=NodeFaultModel(
            slow_at={replica: (0.0, 1000.0)},
            partition_at={primary: (0.0, float("inf"))},
        ),
        hedge=HedgePolicy(after_s=1e-3, max_hedges=2),
        heartbeat_s=0.05,
    )
    tr = c.run()
    (req,) = tr.requests
    assert req.outcome == "completed" and req.n_hedges == 2
    assert [a.node for a in tr.attempts] == [primary, replica, spill]
    assert [a.hedge for a in tr.attempts] == [False, True, True]
    assert req.served_by == spill
    assert req.end_time - req.arrival_time < 3e-3
    assert not events(tr, "dead")
    c.shutdown()


def clean_latencies(trace, until=float("inf")):
    """Latencies of the clean responses (one copy, no hedge) completed
    by ``until``, in completion order: the order requests are finalized
    in."""
    return [
        r.end_time - r.dispatch_time
        for r in trace.requests
        if r.outcome == "completed" and r.n_hedges == 0
        and r.n_attempts == 1 and r.end_time <= until
    ]


def alpha_cluster(**kw):
    """One sgemm tenant on three nodes, 120 requests over 60 ms."""
    spec = ClusterTenant("alpha", workload="sgemm", size=64, rate_hz=2000.0,
                         n_requests=120, seed=11)
    return make_cluster(n_nodes=3, specs=[spec], **kw)


def test_hedge_deadline_forgets_a_slow_cold_start():
    """A tenant's first clean responses are its slowest (cold perf
    models).  Once ``HEDGE_WINDOW`` fast clean responses follow, a late
    copy is hedged at twice the slowest of those: the cold start no
    longer sets the deadline."""
    primary = primary_of("alpha", 3)
    c = alpha_cluster(
        node_faults=NodeFaultModel(slow_at={primary: (0.05, 100.0)}),
        hedge=HedgePolicy(after_s=2e-3),
    )
    tr = c.run()
    first = min(events(tr, "hedge"), key=lambda e: e.time)
    (late,) = [r for r in tr.requests if r.req_id == first.req_id]
    before = clean_latencies(tr, until=late.dispatch_time)
    recent = max(before[-HEDGE_WINDOW:])
    assert len(before) > HEDGE_WINDOW and max(before) > 2 * recent
    assert first.time - late.dispatch_time == pytest.approx(2 * recent)
    assert c.hedge_deadline("alpha") == pytest.approx(2 * recent)
    c.shutdown()


@pytest.mark.parametrize("fault", ["hedged", "failed-over"])
def test_only_clean_responses_enter_the_deadline_window(fault):
    """Karn's rule: a response that raced a hedge or came from a
    re-dispatch says nothing about one copy's latency, so the window
    holds exactly the last ``HEDGE_WINDOW`` clean responses even when
    the others are slower than all of them."""
    primary = primary_of("alpha", 3)
    if fault == "hedged":  # every copy on the primary is hedged after 50 ms
        c = alpha_cluster(
            node_faults=NodeFaultModel(slow_at={primary: (0.05, 100.0)}),
            hedge=HedgePolicy(after_s=2e-3),
        )
    else:  # no hedging: the primary's last copies fail over
        c = alpha_cluster(node_faults=NodeFaultModel(crash_at={primary: 0.059}))
    tr = c.run()
    window = list(c._clean_s["alpha"])
    assert window == clean_latencies(tr)[-HEDGE_WINDOW:]
    others = [
        r.end_time - r.dispatch_time for r in tr.requests
        if r.outcome == "completed" and (r.n_hedges or r.n_attempts > 1)
    ]
    assert others and min(others) > max(window)
    c.shutdown()


def test_hedge_deadline_never_exceeds_after_s():
    """``after_s`` is the deadline before a tenant's first clean
    response and its ceiling after: here twice the recent clean maximum
    is later than ``after_s``, and every hedge still fires within it."""
    after = 20e-6
    c = alpha_cluster(hedge=HedgePolicy(after_s=after))
    assert c.hedge_deadline("alpha") == after
    tr = c.run()
    assert 2 * max(clean_latencies(tr)[-HEDGE_WINDOW:]) > after
    assert c.hedge_deadline("alpha") == after
    dispatched = {r.req_id: r.dispatch_time for r in tr.requests}
    hedges = events(tr, "hedge")
    assert hedges
    assert all(e.time - dispatched[e.req_id] <= after * (1 + 1e-9) for e in hedges)
    assert alpha_cluster().hedge_deadline("alpha") == float("inf")
    c.shutdown()


def test_chaos_study_reports_each_tenants_final_hedge_deadline():
    """The chaos study reads each run's ``hedge_deadline`` per tenant
    into its table and its BENCH document; every tenant has learned a
    deadline under the 2 ms ceiling in both runs."""
    result, _, _ = run_chaos_ablation(
        n_nodes=4, n_requests=800, rate_hz=8000.0, check=False
    )
    tenants = result.to_dict()["tenants"]
    assert [t["tenant"] for t in tenants] == ["prod-a", "prod-b", "svc", "batch"]
    for t in tenants:
        assert 0 < t["baseline_hedge_ms"] < 2.0 and 0 < t["chaos_hedge_ms"] < 2.0
    text = format_chaos_ablation(result)
    assert "hedge at (ms, base/chaos)" in text
    t = result.tenants[0]
    assert f"{t.baseline_hedge_ms:.3f}/{t.chaos_hedge_ms:.3f}" in text


# ---------------------------------------------------------------------------
# brown-out
# ---------------------------------------------------------------------------

def test_brownout_sheds_only_the_lowest_priority_class():
    specs = [
        ClusterTenant("prod", workload="sgemm", size=64, rate_hz=20000.0,
                      n_requests=400, seed=1, priority=2),
        ClusterTenant("batch", workload="pathfinder", size=48,
                      rate_hz=20000.0, n_requests=400, seed=2, priority=0),
    ]
    c = make_cluster(
        n_nodes=2,
        specs=specs,
        node_faults=NodeFaultModel(
            slow_at={0: (0.002, 50.0), 1: (0.002, 50.0)}
        ),
        brownout=BrownoutPolicy(high_water=1.0, low_water=0.5),
        max_inflight=1,
    )
    tr = c.run()
    shed = [r for r in tr.requests if r.shed_reason == "brownout"]
    assert shed, "pressure never tripped the brown-out gate"
    assert events(tr, "brownout_on")
    assert {r.tenant for r in shed} == {"batch"}
    assert all(
        r.outcome == "completed"
        for r in tr.requests
        if r.tenant == "prod"
    )
    c.shutdown()


# ---------------------------------------------------------------------------
# planned drain
# ---------------------------------------------------------------------------

def test_drain_removes_the_node_without_losing_requests():
    victim = primary_of("alpha", 4)
    c = make_cluster()
    c.drain(victim, at=0.02)
    tr = c.run()
    assert events(tr, "drain_start", victim)
    done = events(tr, "drain_done", victim)
    assert len(done) == 1
    assert all(r.outcome == "completed" for r in tr.requests)
    assert c.nodes[victim].removed
    assert victim not in c.alive_nodes
    # nothing routed to the node after it left the ring
    t_gone = done[0].time
    assert all(
        a.node != victim
        for a in tr.attempts
        if a.dispatch_time > t_gone
    )
    c.shutdown()


# ---------------------------------------------------------------------------
# device faults inside cluster nodes
# ---------------------------------------------------------------------------

def test_device_faults_are_retried_inside_nodes():
    c = make_cluster(
        specs=tenants(n_requests=60),
        device_faults=FaultModel(kernel_fault_rate=0.2, seed=5),
        recovery=RecoveryPolicy(max_retries=8),
    )
    tr = c.run()
    node_faults = sum(
        len(n.engine.trace.faults) for n in c.nodes.values()
    )
    assert node_faults > 0, "device fault rate too low to matter"
    assert all(r.outcome == "completed" for r in tr.requests)
    c.shutdown()


def test_queued_copy_of_a_finished_request_never_reaches_an_engine():
    """Hedges queue behind a busy second replica; their primaries finish
    first.  When the replica pumps its queue, each copy of a settled
    request is dropped there: it makes no attempt and no engine task,
    and its request's state is gone once the last copy is."""
    primary, second, _ = HashRing(range(3), vnodes=32).preference("alpha")
    c = make_cluster(
        n_nodes=3,
        node_faults=NodeFaultModel(
            slow_at={primary: (0.01, 50.0), second: (0.005, 50.0)}
        ),
        device_faults=FaultModel(kernel_fault_rate=0.2, seed=5),
        recovery=RecoveryPolicy(max_retries=0),
        hedge=HedgePolicy(after_s=2e-3),
        max_inflight=1,
    )

    def settled(req):
        return c._reqs[(req.tenant, req.req_id)].finalized

    dropped, reached = [], []
    submit_batch = c._submit_batch

    def pump_spy(node, batch, t):
        dropped.extend(req for req in batch if settled(req))
        submit_batch(node, batch, t)

    c._submit_batch = pump_spy
    for node in c.nodes.values():
        def engine_spy(batch, t, submit=node.submit_batch):
            reached.extend(req for req in batch if settled(req))
            return submit(batch, t)

        node.submit_batch = engine_spy
    tr = c.run()
    assert dropped, "no settled request had a copy in a pumped batch"
    assert not reached
    done = {(r.tenant, r.req_id): r.end_time for r in tr.requests}
    assert not [
        a for a in tr.attempts if a.dispatch_time > done[(a.tenant, a.req_id)]
    ]
    assert any(a.hedge and a.outcome == "failed" for a in tr.attempts)
    assert not c._reqs
    c.shutdown()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _digest(**kw):
    c = make_cluster(check=False, **kw)
    d = c.run().digest()
    c.shutdown()
    return d


def test_same_seed_chaos_runs_are_identical():
    plan = chaos_schedule(4, at=0.02, kill=1, slow=1,
                          slow_factor=50.0, stagger_s=0.005, seed=9)
    kw = dict(node_faults=plan, hedge=HedgePolicy(after_s=2e-3))
    assert _digest(**kw) == _digest(**kw)


def test_seed_changes_the_trace_through_timing_noise():
    """With noise enabled the cluster seed feeds every node's timing
    perturbation: same seed replays identically, a different seed
    produces a different trace."""
    assert _digest(seed=1, noise_sigma=0.05) == _digest(
        seed=1, noise_sigma=0.05
    )
    assert _digest(seed=1, noise_sigma=0.05) != _digest(
        seed=2, noise_sigma=0.05
    )
