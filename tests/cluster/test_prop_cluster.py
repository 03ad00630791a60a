"""Property-based chaos on a small cluster.

Hypothesis draws a cluster of 3-6 nodes and a node-level fault plan
against it: per node an optional straggler (instant and slowdown
factor), an optional partition (instant and window, from one that heals
before failure detection to one that never heals) and an optional
planned drain.  It also draws hedging on or off (on: its delay and a
budget of one or two hedges, so an overdue hedge hedges again),
replication 1-3 and the brown-out water marks.  Every draw must give:

- ``check_cluster`` clean, ``cluster.settled-dispatch`` and
  ``cluster.hedge-budget`` included, and no request record with more
  hedges than the budget;
- exactly-once delivery: one final record per offered request, and
  exactly one applied attempt per completed request, none otherwise;
- no router state left in ``_reqs`` after ``run()``;
- the same ``ClusterTrace.digest()`` from two runs of the same draw,
  the second with ``metrics=True`` (metrics on or off, the same trace);
- in that run, folded metric counters equal to the trace aggregates:
  ``cluster_requests_total`` per outcome, failovers, hedges and
  suppressed duplicates.

Crashes are not drawn.  A crashed node's engine still starts the tasks
queued at the crash instant (``cluster.dead-node-execution``, the
ROADMAP's crash item, on 11 of seeds 0-29 of the chaos study's plan);
crash draws join once the engine can halt at an instant.

``REPRO_CLUSTER_PROP_EXAMPLES`` sets the number of draws (default 20,
the tier-1 bound); CI's cluster entry runs a deeper pass.
"""

import os
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.cluster import check_cluster
from repro.cluster import (
    BrownoutPolicy,
    Cluster,
    ClusterTenant,
    HedgePolicy,
    NodeFaultModel,
)

MAX_EXAMPLES = int(os.environ.get("REPRO_CLUSTER_PROP_EXAMPLES", "20"))
RATE_HZ = 4000.0
N_REQUESTS = 40
#: arrivals span about this long; fault instants fall inside it
HORIZON_S = N_REQUESTS / RATE_HZ

_instant = st.floats(min_value=0.0, max_value=HORIZON_S)


@st.composite
def chaos_plans(draw):
    n_nodes = draw(st.integers(min_value=3, max_value=6))
    slow, partition, drains = {}, {}, []
    for nid in range(n_nodes):
        if draw(st.booleans()):
            slow[nid] = (draw(_instant), draw(st.floats(1.0, 200.0)))
        if draw(st.booleans()):
            t0 = draw(_instant)
            window = draw(
                st.one_of(st.floats(5e-4, 0.03), st.just(float("inf")))
            )
            partition[nid] = (t0, t0 + window)
        if draw(st.integers(0, 3)) == 0:
            drains.append((nid, draw(_instant)))
    hedge = draw(
        st.one_of(
            st.none(),
            st.builds(HedgePolicy, st.floats(5e-4, 8e-3), st.integers(1, 2)),
        )
    )
    brownout = draw(
        st.one_of(
            st.none(),
            st.tuples(st.floats(0.5, 2.0), st.floats(1.0, 3.0)).map(
                lambda marks: dict(zip(("low_water", "high_water"), sorted(marks)))
            ),
        )
    )
    return {
        "n_nodes": n_nodes,
        "faults": NodeFaultModel(slow_at=slow, partition_at=partition),
        "drains": drains,
        "hedge": hedge,
        "brownout": brownout,
        "replication": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 3)),
    }


def _tenants():
    return [
        ClusterTenant("alpha", workload="sgemm", size=64, rate_hz=RATE_HZ / 2,
                      n_requests=N_REQUESTS // 2, seed=11, priority=2),
        ClusterTenant("beta", workload="bfs", size=200, rate_hz=RATE_HZ / 4,
                      n_requests=N_REQUESTS // 4, seed=22, priority=1),
        ClusterTenant("gamma", workload="pathfinder", size=48,
                      rate_hz=RATE_HZ / 4, n_requests=N_REQUESTS // 4,
                      seed=33, priority=0),
    ]


def _run(plan, metrics: bool = False) -> Cluster:
    c = Cluster(
        plan["n_nodes"],
        _tenants(),
        seed=plan["seed"],
        replication=plan["replication"],
        node_faults=plan["faults"],
        hedge=plan["hedge"],
        brownout=None if plan["brownout"] is None
        else BrownoutPolicy(**plan["brownout"]),
        metrics=metrics,
        check=False,
    )
    for nid, at in plan["drains"]:
        c.drain(nid, at)
    c.run()
    c.shutdown()
    return c


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(chaos_plans())
def test_chaos_plan_keeps_every_cluster_invariant(plan):
    c = _run(plan)
    trace = c.trace
    assert check_cluster(c) == []
    budget = plan["hedge"].max_hedges if plan["hedge"] else 0
    assert all(r.n_hedges <= budget for r in trace.requests)
    offered = {(s.name, i) for s in c.tenants for i in range(s.n_requests)}
    records = Counter((r.tenant, r.req_id) for r in trace.requests)
    assert set(records) == offered and set(records.values()) == {1}
    applied = Counter(
        (a.tenant, a.req_id) for a in trace.attempts if a.outcome == "applied"
    )
    for r in trace.requests:
        assert applied[(r.tenant, r.req_id)] == int(r.completed), r
    assert not c._reqs
    again = _run(plan, metrics=True)
    assert again.trace.digest() == trace.digest()
    metrics = again.metrics.snapshot()
    assert _totals(metrics, "cluster_requests_total", "outcome") == {
        outcome: n
        for outcome, n in (("completed", trace.n_completed),
                           ("shed", trace.n_shed), ("failed", trace.n_failed))
        if n
    }
    for name, n in (("cluster_failovers_total", trace.n_failovers),
                    ("cluster_hedges_total", trace.n_hedges),
                    ("cluster_duplicates_suppressed_total",
                     trace.n_duplicates_suppressed)):
        assert sum(_totals(metrics, name, "tenant").values()) == n, name


def _totals(snapshot: dict, name: str, label: str) -> Counter:
    """A snapshotted metric's series summed per value of ``label``."""
    out = Counter()
    for series in snapshot[name]["series"]:
        out[series["labels"][label]] += series["value"]
    return out
