"""Cluster-scale serving: a simulated multi-node deployment of the
composition server with failure detection, tenant failover, hedging and
graceful brown-out.

Each :class:`~repro.cluster.node.ClusterNode` is a full single-machine
runtime (engine + machine description + perf-model store + device-level
fault model); the :class:`~repro.cluster.router.Cluster` facade routes
tenants across them with a consistent-hash ring, detects node failures
with a phi-accrual heartbeat detector, and retries/hedges requests
under an exactly-once completion guarantee.  Chaos plans are scripted
via :class:`~repro.cluster.faults.NodeFaultModel` (or derived from a
seed with :func:`~repro.cluster.faults.chaos_schedule`), and everything
is deterministic: same seed, same chaos, byte-identical trace digest.

>>> from repro.cluster import Cluster, ClusterTenant, chaos_schedule
>>> tenants = [ClusterTenant(name="t0", workload="sgemm", n_requests=50,
...                          priority=2, slo_ms=50.0)]
>>> cluster = Cluster(4, tenants, seed=7,
...                   node_faults=chaos_schedule(4, at=0.05, kill=1))
>>> trace = cluster.run()
"""

from repro._lazy import lazy_exports

#: public names, each resolved on first use: a caller that needs only
#: the records or the ring does not load the router and its serving stack
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.detector": ("NodeState", "PhiAccrualDetector"),
        "repro.cluster.faults": ("NodeFaultModel", "chaos_schedule"),
        "repro.cluster.metrics": ("ClusterMetrics",),
        "repro.cluster.node": ("ClusterNode",),
        "repro.cluster.records": (
            "ATTEMPT_OUTCOMES",
            "CLUSTER_EVENT_KINDS",
            "REQUEST_OUTCOMES",
            "AttemptRecord",
            "ClusterEventRecord",
            "ClusterRequestRecord",
            "ClusterTrace",
        ),
        "repro.cluster.ring": ("HashRing",),
        "repro.cluster.router": (
            "BrownoutPolicy",
            "Cluster",
            "ClusterTenant",
            "HedgePolicy",
        ),
        "repro.cluster.slo": (
            "RecoveryStats",
            "cluster_slo_report",
            "completed_latencies",
            "recovery_stats",
            "windowed_p99",
        ),
    },
)

__all__ = [
    "ATTEMPT_OUTCOMES",
    "CLUSTER_EVENT_KINDS",
    "REQUEST_OUTCOMES",
    "AttemptRecord",
    "BrownoutPolicy",
    "Cluster",
    "ClusterEventRecord",
    "ClusterMetrics",
    "ClusterNode",
    "ClusterRequestRecord",
    "ClusterTenant",
    "ClusterTrace",
    "HashRing",
    "HedgePolicy",
    "NodeFaultModel",
    "NodeState",
    "PhiAccrualDetector",
    "RecoveryStats",
    "chaos_schedule",
    "cluster_slo_report",
    "completed_latencies",
    "recovery_stats",
    "windowed_p99",
]
