"""Same-seed cluster trace digests are frozen across router-state changes.

How the router stores its per-request bookkeeping (and when it lets go
of it) must not change what the cluster does: a chaos run's
:meth:`ClusterTrace.digest` is pinned here at two seeds.  The plan
exercises every late path of a request key: latency hedges and their
losers, partitions that outlast failure detection (queued work
requeued, outstanding attempts lost and failed over, stranded
completions redelivered as duplicates when the link heals), a
straggler, brown-out shedding and one planned drain.  A hedge fires at
twice its tenant's slowest recent clean response, long before failure
detection, so one partition alone fails nothing over: every blackholed
copy has a live hedge when its node is declared dead.  The straggler is
therefore cut off over the same window.  The hedges of the first
node's copies land on it, are blackholed too, and when both nodes are
declared dead their requests have no live copy left and fail over.

Update the digests only when a change legitimately alters cluster
behaviour (routing, timing, record fields) — never for a pure
storage or memory change.
"""

from collections import Counter

import pytest

from repro.check.cluster import check_cluster
from repro.cluster import (
    BrownoutPolicy,
    Cluster,
    ClusterTenant,
    HedgePolicy,
    NodeFaultModel,
)

#: five nodes; ring preferences: alpha and gamma [2, 3, ...], beta [4, 1, ...]
N_NODES = 5
PARTITIONED, STRAGGLER, DRAINED = 2, 3, 4

GOLDEN = {
    0: "16225600deb8a43cd4cff3549f12e2887a6297858b7d2c3e86e4a588172f53a0",
    1: "e70573f14ced337fb11d51c923e70139a1c89bccff7e14503fd66a87a5bb13e2",
}


def golden_cluster(seed: int) -> Cluster:
    specs = [
        ClusterTenant("alpha", workload="sgemm", size=64, rate_hz=4000.0,
                      n_requests=160, seed=11, priority=2, slo_ms=5.0),
        ClusterTenant("beta", workload="bfs", size=200, rate_hz=4000.0,
                      n_requests=160, seed=22, priority=1),
        ClusterTenant("gamma", workload="pathfinder", size=48,
                      rate_hz=4000.0, n_requests=80, seed=33, priority=0),
    ]
    c = Cluster(
        N_NODES,
        specs,
        seed=seed,
        node_faults=NodeFaultModel(
            slow_at={PARTITIONED: (0.005, 30.0), STRAGGLER: (0.005, 4.0)},
            partition_at={
                PARTITIONED: (0.012, 0.030),
                STRAGGLER: (0.012, 0.030),
            },
        ),
        hedge=HedgePolicy(after_s=7e-3),
        brownout=BrownoutPolicy(high_water=1.5, low_water=0.75),
        noise_sigma=0.05,
        check=False,
    )
    c.drain(DRAINED, at=0.02)
    return c


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_chaos_trace_digest_is_pinned(seed):
    c = golden_cluster(seed)
    tr = c.run()
    kinds = Counter(e.kind for e in tr.events)
    details = Counter(
        e.detail for e in tr.events if e.kind in ("failover", "duplicate")
    )
    # the plan reaches every path it is meant to pin
    assert kinds["hedge"] and kinds["brownout_on"] and kinds["drain_done"]
    assert kinds["dead"] and kinds["heal"] and kinds["slowdown"] == 2
    for detail in (
        "requeued from dead node",
        "outstanding on dead node",
        "late response",
        "hedge loser",
    ):
        assert details[detail], detail
    assert check_cluster(c) == []
    assert tr.digest() == GOLDEN[seed]
    c.shutdown()
