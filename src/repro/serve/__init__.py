"""repro.serve: multi-tenant composition serving.

Wraps the single-application :class:`~repro.runtime.runtime.Runtime` in
a serving layer: tenant client sessions generate open- or closed-loop
load, an admission controller sheds or delays arrivals beyond the
configured queue/backlog bounds, a coalescer fuses same-shape
invocations across tenants into batched dispatches, and a weighted
fair queue (the ``fair`` scheduling policy) shares machine time between
tenants.  Every request's latency decomposition lands in the execution
trace and rolls up into the per-tenant :class:`~repro.serve.slo.SloReport`.

Typical use::

    from repro.hw.presets import platform_c2050
    from repro.serve import AdmissionPolicy, CompositionServer, TenantSpec

    server = CompositionServer(
        platform_c2050(),
        tenants=[
            TenantSpec("heavy", workload="sgemm", size=96, rate_hz=400.0),
            TenantSpec("light", workload="pathfinder", size=64, rate_hz=40.0),
        ],
        scheduler="fair",
        admission=AdmissionPolicy(max_queue_per_tenant=12),
    )
    report = server.run()
    print(report.for_tenant("light").p99_s)
"""

from repro._lazy import lazy_exports

#: public names, each resolved on first use: ``import repro.serve`` loads
#: no submodule, and only ``AsyncClient`` pulls in asyncio
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.aio": ("AsyncClient",),
        "repro.serve.admission": (
            "AdmissionController",
            "AdmissionOutcome",
            "AdmissionPolicy",
        ),
        "repro.serve.batching": ("BatchPolicy", "Coalescer"),
        "repro.serve.client": (
            "ClosedLoopClient",
            "OpenLoopClient",
            "Request",
            "TenantSpec",
            "WORKLOADS",
            "make_client",
        ),
        "repro.serve.fairness": ("WeightedFairQueue",),
        "repro.serve.metrics": ("ServingMetrics",),
        "repro.serve.server": ("CompositionServer",),
        "repro.serve.slo": (
            "SloReport",
            "TenantSlo",
            "format_slo_report",
            "percentile",
            "slo_report",
            "tenant_slo",
        ),
    },
)

__all__ = [
    "AdmissionController",
    "AdmissionOutcome",
    "AdmissionPolicy",
    "AsyncClient",
    "BatchPolicy",
    "ClosedLoopClient",
    "Coalescer",
    "CompositionServer",
    "OpenLoopClient",
    "Request",
    "ServingMetrics",
    "SloReport",
    "TenantSlo",
    "TenantSpec",
    "WORKLOADS",
    "WeightedFairQueue",
    "format_slo_report",
    "make_client",
    "percentile",
    "slo_report",
    "tenant_slo",
]
