"""Live per-tenant serving metrics (``CompositionServer(metrics=...)``).

The end-of-run :class:`~repro.serve.slo.SloReport` answers "how did the
run go"; this catalogue answers "how is it going *right now*".  Like
the engine catalogue it is folded out of the trace on every read of the
suite (see :mod:`repro.obs.suite`): requests are one more record kind.
The counters and latency histograms fold the request rows recorded
since the last read, and the per-tenant latency quantile gauges are set
from all of a tenant's completed requests with
:func:`~repro.serve.slo.percentiles`, the computation
:func:`~repro.serve.slo.tenant_slo` uses — so at every read they agree
with ``slo_report(trace)`` to the bit, which the integration suite
asserts.  The queue-depth gauges are live state, not trace rows: they
are set from the admission controller and the server's in-flight count
at the same reads (a :attr:`~repro.obs.suite.MetricsSuite.gauges`
entry), not after every serving event.  A direct registry read mid-run
sees the last read's values: call ``suite.collect()`` first.

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

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.obs.suite import Fold, Rows, span
from repro.serve.slo import QUANTILES, percentiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.suite import MetricsSuite
    from repro.serve.admission import AdmissionController

#: a request's final outcome by code (``RequestRecord.outcome``, by column)
OUTCOMES = ("completed", "shed", "failed")


def _outcome(rows: Rows) -> tuple:
    shed, failed = rows.array("shed"), rows.array("failed")
    return np.where(shed, 1, np.where(failed, 2, 0)), OUTCOMES


def _completed(rows: Rows) -> np.ndarray:
    return _outcome(rows)[0] == 0


_latency = span("arrival_time", "end_time")

#: the request rows' part of the serving catalogue
REQUEST_FOLDS = (
    Fold("repro_requests_total", "counter",
         "Requests by final outcome (completed/shed/failed)", "",
         "requests", {"tenant": "tenant", "outcome": _outcome}),
    Fold("repro_request_latency_seconds", "histogram",
         "End-to-end latency (arrival to completion)", "seconds",
         "requests", {"tenant": "tenant"}, _latency, _completed),
    Fold("repro_request_queue_wait_seconds", "histogram",
         "Admission plus batch-queue wait before dispatch", "seconds",
         "requests", {"tenant": "tenant"},
         span("arrival_time", "dispatch_time"), _completed),
)


class ServingMetrics:
    """The serving catalogue, folded by ``suite`` on every read.

    ``admission`` and ``inflight`` (a function returning the dispatched
    tasks not yet completed) are the live state the queue-depth gauges
    read; ``tenants`` get their series from t=0.
    """

    def __init__(
        self,
        suite: "MetricsSuite",
        admission: "AdmissionController",
        inflight: Callable[[], int],
        tenants: Sequence[str],
    ) -> None:
        self.registry = registry = suite.registry
        suite.add_folds(REQUEST_FOLDS)
        self._quantile = registry.gauge(
            "repro_request_latency_quantile_seconds",
            help="Exact latency quantiles over all completed requests "
            "(same interpolation as the SLO report)",
            unit="seconds",
            labelnames=("tenant", "q"),
        )
        suite.folds[self._quantile.name] = ("requests", self._set_quantiles)
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
        self._admission, self._inflight_now = admission, inflight
        self._tenants = list(tenants)
        for tenant in self._tenants:
            self._tenant_depth.set(0, tenant=tenant)
        suite.gauges[self._depth.name] = self._set_queues

    def _set_quantiles(self, rows: Rows) -> None:
        """Set each tenant's gauges from all its completed requests, in
        order of first completion."""
        rows = Rows(rows.trace, rows.kind, 0, rows.stop)
        codes, tenants = rows.labels("tenant")
        done, latency = _completed(rows), _latency(rows)
        for code in dict.fromkeys(codes[done].tolist()):
            mine = latency[done & (codes == code)].tolist()
            for q, value in zip(QUANTILES, percentiles(mine, QUANTILES)):
                self._quantile.set(value, tenant=tenants[code], q=int(q))

    def _set_queues(self) -> None:
        """Set the queue-depth gauges from the admission state."""
        admission = self._admission
        self._depth.set(admission.queue_depth())
        for tenant in self._tenants:
            self._tenant_depth.set(
                admission.queue_depth(tenant), tenant=tenant
            )
        self._inflight.set(self._inflight_now())
