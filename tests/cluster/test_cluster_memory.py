"""What a finished cluster request leaves behind: the retained-bytes gate.

The router keeps per-request state only while a request is in flight:
once a key is finalized, has no outstanding attempt and no copy queued
in any node's coalescer, its state is dropped and only the trace
records remain.  This gate runs a chaos run shaped like the
``cluster_chaos`` benchmark (eight nodes, two partitions that outlast
failure detection, a straggler, hedging and brown-out) and bounds the
bytes it retains per request.  With hedging every copy blackholed by a
partition has a live hedge long before its node is declared dead, so
nothing fails over; a second run without hedging covers the failover
path under the same gate.
"""

import gc
import tracemalloc
from array import array

from repro.cluster import NodeFaultModel
from repro.experiments.cluster import (
    build_cluster,
    chaos_tenant_mix,
    targeted_chaos,
)
from repro.runtime.data import DataHandle

N_NODES = 8
N_REQUESTS = 6_000
RATE_HZ = 12_000.0
#: retained bytes per request, ~15% over the measured ~446 B of the
#: hedged run (~384 B without hedging; x86-64 Linux, CPython 3.11).
#: While request and event records were objects (each request a 152 B
#: record plus boxed ints), ~590 B and ~505 B, gated at 620 B.  With
#: 8-byte int and id trace columns and served handle names stored whole,
#: ~651 B.  While attempts were record objects, each shared input kept
#: a DoneTask per completed reader and served task names were whole
#: strings, ~868 B; while every finished request's
#: output handle stayed in its node engine's residency table, ~1,220 B;
#: while finished tasks also stayed pinned by their inputs' reader lists
#: and the trace cached every transfer record the serving layer read,
#: ~1,534 B; keeping every finished request's router state as well,
#: ~2,420 B.
GATE_BYTES_PER_REQUEST = 515


def _chaos_cluster(n_requests: int, seed: int, hedged: bool):
    """The benchmark's plan: a straggler and a partition on best-effort
    primaries, and the protected primary partitioned over the window
    the chaos study would crash it in."""
    tenants = chaos_tenant_mix(n_requests, RATE_HZ, seed=seed)
    at, window = 0.5 * n_requests / RATE_HZ, 0.25 * n_requests / RATE_HZ
    plan = targeted_chaos(N_NODES, tenants, at=at, partition_for=window)
    (victim,) = plan.crash_at
    chaos = NodeFaultModel(
        slow_at=plan.slow_at,
        partition_at={**plan.partition_at, victim: (at, at + window)},
    )
    cluster = build_cluster(N_NODES, tenants, seed, chaos, False)
    if not hedged:
        cluster.hedge = None
    return cluster


def _run(n_requests: int, seed: int, hedged: bool):
    """Run one chaos cluster; return it and the traced bytes it gained
    between set-up and shutdown."""
    cluster = _chaos_cluster(n_requests, seed, hedged)
    base, _ = tracemalloc.get_traced_memory()
    cluster.run()
    cluster.shutdown()
    after, _ = tracemalloc.get_traced_memory()
    return cluster, after - base


def _measure(hedged: bool):
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        _run(200, 1, hedged)  # warm-up: lazy module state and memos
        return _run(N_REQUESTS, 0, hedged)
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


def test_finished_requests_retain_bounded_bytes():
    cluster, retained = _measure(hedged=True)
    trace = cluster.trace
    assert trace.n_hedges and trace.n_duplicates_suppressed
    _assert_released(cluster, retained)


def test_failed_over_requests_retain_bounded_bytes():
    cluster, retained = _measure(hedged=False)
    assert cluster.trace.n_failovers
    _assert_released(cluster, retained)


def _assert_released(cluster, retained: int) -> None:
    trace = cluster.trace
    assert len(trace.requests) == sum(t.n_requests for t in cluster.tenants)
    assert not cluster._reqs, f"{len(cluster._reqs)} request states left"
    for node in cluster.nodes.values():
        # finished requests released their outputs: each GPU holds only
        # its sessions' shared inputs
        inputs = [
            h
            for session in node._sessions.values()
            for h in session.inputs
            if isinstance(h, DataHandle)
        ]
        shared = {h.handle_id for h in inputs}
        for resident in node.engine._resident[1:]:
            assert set(resident) <= shared, f"node {node.node_id}"
        # a completed reader leaves its id, not a Task or DoneTask
        for h in inputs:
            assert not h.pending_readers, f"node {node.node_id}: {h.name}"
            assert h.reader_ids is None or type(h.reader_ids) is array
            assert h.last_writer is None
    per_request = retained / len(trace.requests)
    assert per_request <= GATE_BYTES_PER_REQUEST, (
        f"{per_request:.0f} B retained per request"
    )
