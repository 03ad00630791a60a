"""Live per-tenant serving metrics (``CompositionServer(metrics=...)``).

The end-of-run :class:`~repro.serve.slo.SloReport` answers "how did the
run go"; this module answers "how is it going *right now*": every
request outcome updates counters and latency histograms in the shared
:class:`~repro.obs.metrics.MetricsRegistry`, and per-tenant latency
quantile gauges are recomputed with the *same* exact-interpolation
:func:`~repro.serve.slo.percentile` the SLO report uses — so the final
gauge snapshot agrees with ``slo_report(trace)`` to the bit, which the
integration suite asserts.

Serving metric catalogue (tenant-labelled unless noted):

===================================  =================  =================
metric                               labels             type
===================================  =================  =================
repro_requests_total                 tenant, outcome    counter
repro_request_latency_seconds        tenant             histogram
repro_request_latency_quantile_sec…  tenant, q          gauge (p50/95/99)
repro_request_queue_wait_seconds     tenant             histogram
repro_tenant_queue_depth             tenant             gauge
repro_server_queue_depth             —                  gauge
repro_server_inflight                —                  gauge
===================================  =================  =================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.serve.slo import percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.stats import RequestRecord
    from repro.serve.admission import AdmissionController

#: latency quantiles kept live per tenant (percent, SLO-report aligned)
QUANTILES = (50.0, 95.0, 99.0)


class ServingMetrics:
    """Per-tenant request accounting into a shared metrics registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._requests = registry.counter(
            "repro_requests_total",
            help="Requests by final outcome (completed/shed/failed)",
            labelnames=("tenant", "outcome"),
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            help="End-to-end latency (arrival to completion)",
            unit="seconds",
            labelnames=("tenant",),
        )
        self._queue_wait = registry.histogram(
            "repro_request_queue_wait_seconds",
            help="Admission plus batch-queue wait before dispatch",
            unit="seconds",
            labelnames=("tenant",),
        )
        self._quantile = registry.gauge(
            "repro_request_latency_quantile_seconds",
            help="Exact latency quantiles over all completed requests "
            "(same interpolation as the SLO report)",
            unit="seconds",
            labelnames=("tenant", "q"),
        )
        self._tenant_depth = registry.gauge(
            "repro_tenant_queue_depth",
            help="Admitted-but-unfinished requests per tenant",
            labelnames=("tenant",),
        )
        self._depth = registry.gauge(
            "repro_server_queue_depth",
            help="Admitted-but-unfinished requests, all tenants",
        )
        self._inflight = registry.gauge(
            "repro_server_inflight",
            help="Dispatched tasks not yet completed",
        )
        #: completed-request latencies per tenant — the exact-quantile
        #: basis (histograms alone only give bucket-resolution answers)
        self._latencies: dict[str, list[float]] = {}

    # -- request outcomes ---------------------------------------------------

    def note_request(self, rec: "RequestRecord") -> None:
        """Account one finalized request record (any outcome)."""
        if rec.shed:
            outcome = "shed"
        elif rec.failed:
            outcome = "failed"
        else:
            outcome = "completed"
        self._requests.inc(tenant=rec.tenant, outcome=outcome)
        if outcome != "completed":
            return
        latency = rec.latency
        self._latency.observe(latency, tenant=rec.tenant)
        self._queue_wait.observe(rec.queue_wait, tenant=rec.tenant)
        latencies = self._latencies.setdefault(rec.tenant, [])
        latencies.append(latency)
        for q in QUANTILES:
            self._quantile.set(
                percentile(latencies, q), tenant=rec.tenant, q=int(q)
            )

    # -- load state ---------------------------------------------------------

    def sample_queues(
        self, admission: "AdmissionController", inflight: int
    ) -> None:
        """Refresh the queue-depth gauges from the admission state."""
        self._depth.set(admission.queue_depth())
        for tenant in self._latencies:
            self._tenant_depth.set(
                admission.queue_depth(tenant), tenant=tenant
            )
        self._inflight.set(inflight)

    def register_tenant(self, tenant: str) -> None:
        """Pre-create the tenant's series so gauges exist from t=0."""
        self._latencies.setdefault(tenant, [])
        self._tenant_depth.set(0, tenant=tenant)

    # -- views ---------------------------------------------------------------

    def n_completed(self, tenant: str) -> int:
        return len(self._latencies.get(tenant, []))
