"""The cluster metric exposition, pinned byte for byte.

The cluster metrics are folds over the cluster trace's columns, read at
collect time.  Their Prometheus text is frozen here for two
6,000-request chaos runs with ``metrics=True``, on the plan of
``test_cluster_memory.py``: eight nodes, a straggler and a partition
on best-effort primaries, and the protected primary partitioned over
the window the chaos study would crash it in.  The hedged run covers
hedges, suppressed duplicates and detector transitions; the run with
``hedge=None`` covers failovers, scheduled retries and brown-out.  The
references in ``tests/data`` were taken from the per-event metric
hooks the folds replace.  The hedged run is read once, at the end, so
each gauge folds several verdicts of a node at once; the other is read
at every heartbeat, as a scraper would, so each read folds only the
rows the trace gained.

Update the references only when a change legitimately alters cluster
behaviour or the metric catalogue, never for a storage change:
``python tests/cluster/test_cluster_metrics.py`` rewrites them.
"""

from pathlib import Path

import pytest

from repro.cluster import BrownoutPolicy, Cluster, HedgePolicy, NodeFaultModel
from repro.experiments.cluster import chaos_tenant_mix, targeted_chaos

DATA = Path(__file__).resolve().parents[1] / "data"
N_NODES = 8
N_REQUESTS = 6_000
RATE_HZ = 12_000.0


def chaos_cluster(hedged: bool) -> Cluster:
    tenants = chaos_tenant_mix(N_REQUESTS, RATE_HZ, seed=0)
    at, window = 0.5 * N_REQUESTS / RATE_HZ, 0.25 * N_REQUESTS / RATE_HZ
    plan = targeted_chaos(N_NODES, tenants, at=at, partition_for=window)
    (victim,) = plan.crash_at
    return Cluster(
        N_NODES,
        tenants,
        seed=0,
        replication=2,
        node_faults=NodeFaultModel(
            slow_at=plan.slow_at,
            partition_at={**plan.partition_at, victim: (at, at + window)},
        ),
        hedge=HedgePolicy(after_s=2e-3, max_hedges=2) if hedged else None,
        brownout=BrownoutPolicy(high_water=3.0, low_water=1.0),
        metrics=True,
        check=False,
    )


def reference(hedged: bool) -> Path:
    return DATA / f"cluster_metrics_{'hedged' if hedged else 'unhedged'}.prom"


@pytest.mark.parametrize("hedged", [True, False], ids=["hedged", "unhedged"])
def test_exposition_matches_the_frozen_reference(hedged):
    c = chaos_cluster(hedged)
    beat = c._on_heartbeat

    def scrape(t, nid):
        # a scraper reading mid-run: each read folds only the new rows
        beat(t, nid)
        c.metrics.collect()

    if not hedged:
        c._on_heartbeat = scrape
    trace = c.run()
    c.shutdown()
    if hedged:
        assert trace.n_hedges and trace.n_duplicates_suppressed
    else:
        assert trace.n_failovers and trace.events_of("brownout_on")
    assert trace.events_of("dead") and trace.events_of("alive")
    assert c.metrics.to_prometheus() == reference(hedged).read_text()


def write_references() -> None:
    for hedged in (True, False):
        c = chaos_cluster(hedged)
        c.run()
        c.shutdown()
        reference(hedged).write_text(c.metrics.to_prometheus())


if __name__ == "__main__":
    write_references()
