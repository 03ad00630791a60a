"""Cluster-level SLO aggregation and recovery-time measurement.

Per-tenant SLO accounting reuses the single-machine serving layer's
machinery verbatim: a :class:`ClusterRequestRecord` reads like a
:class:`~repro.runtime.stats.RequestRecord`, so
:func:`repro.serve.slo.tenant_slo` aggregates cluster traffic exactly
like one server's — the cluster report is the same shape operators
already read, just fed from N nodes.

The chaos-specific addition is the *recovery-time* measurement: after a
node crash, tail latency spikes (failed-over requests pay detection
latency plus retry backoff) and then settles as the survivors absorb
the traffic.  :func:`recovery_stats` computes a sliding-window p99
series over completion times and reports when — measured from the
crash instant — the tail returned under the tenants' latency budget
*and stayed there*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.records import ClusterTrace
from repro.serve.slo import SloReport, offered_window, percentile, tenant_slo


def cluster_slo_report(
    trace: ClusterTrace, window_s: float | None = None
) -> SloReport:
    """Per-tenant SLO report across all nodes of a cluster run.

    ``window_s`` defaults to the :func:`~repro.serve.slo.offered_window`
    of its requests, as in :func:`repro.serve.slo.slo_report`.
    """
    if window_s is None:
        window_s = offered_window(trace.requests)
    report = SloReport(window_s=window_s)
    # the coded tenant column read once; each tenant's records are built
    # in turn, so one tenant's are alive at a time
    tenants = trace._column("requests", "tenant")
    codes = np.array(tenants.codes, np.intp)
    for tenant in trace.tenants():
        rows = np.flatnonzero(codes == tenants.index[tenant]).tolist()
        report.tenants.append(
            tenant_slo(tenant, [trace.requests[i] for i in rows], window_s)
        )
    return report


def completed_latencies(
    trace: ClusterTrace, tenants: "set[str] | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Completion times and latencies of the completed requests,
    optionally tenant-filtered, sorted by completion time (then
    latency) — the windowed-percentile basis for recovery-time
    measurement."""
    match = {"outcome": "completed"}
    if tenants is not None:
        match["tenant"] = set(tenants)
    rows = trace.where("requests", **match)
    end = trace.array("requests", "end_time")[rows]
    latency = end - trace.array("requests", "arrival_time")[rows]
    order = np.lexsort((latency, end))
    return end[order], latency[order]


def windowed_p99(
    trace: ClusterTrace,
    *,
    window_s: float,
    step_s: float,
    tenants: "set[str] | None" = None,
) -> list[tuple[float, float]]:
    """Sliding-window p99 latency series: ``(t, p99 over completions in
    (t - window_s, t])`` sampled every ``step_s`` until the last
    completion.  Windows with no completions yield NaN (plotted as gaps,
    skipped by recovery logic).
    """
    if window_s <= 0 or step_s <= 0:
        raise ValueError("window_s and step_s must be > 0")
    end, latency = completed_latencies(trace, tenants)
    if not len(end):
        return []
    t = np.arange(1, int(math.ceil(end[-1] / step_s)) + 2) * step_s
    t = t[: np.searchsorted(t, end[-1]) + 1]
    hi = np.searchsorted(end, t, "right")
    lo = np.searchsorted(end, t - window_s, "right")
    return [
        (tk, percentile(latency[a:b].tolist(), 99))
        for tk, a, b in zip(t.tolist(), lo.tolist(), hi.tolist())
    ]


@dataclass(frozen=True)
class RecoveryStats:
    """How the tail behaved around a fault, for one tenant set."""

    #: the fault instant recovery is measured from
    fault_time: float
    #: the latency budget (seconds) the tail is judged against
    slo_s: float
    #: sliding-window p99 at the last sample before the fault
    p99_before_s: float
    #: worst sliding-window p99 at/after the fault
    p99_peak_s: float
    #: earliest time >= fault_time from which p99 stays under budget
    #: (inf if it never settles)
    recovered_at: float
    #: steady-state p99 after recovery (last sample; NaN if never)
    p99_after_s: float

    @property
    def recovery_s(self) -> float:
        """Seconds from the fault until the tail is durably back under
        budget — the headline the chaos experiment reports."""
        return self.recovered_at - self.fault_time

    @property
    def recovered(self) -> bool:
        return math.isfinite(self.recovered_at)

    def to_dict(self) -> dict:
        return {
            "fault_time": self.fault_time,
            "slo_ms": self.slo_s * 1e3,
            "p99_before_ms": self.p99_before_s * 1e3,
            "p99_peak_ms": self.p99_peak_s * 1e3,
            "recovered_at": self.recovered_at,
            "recovery_ms": self.recovery_s * 1e3,
            "recovered": self.recovered,
            "p99_after_ms": self.p99_after_s * 1e3,
        }


def recovery_stats(
    trace: ClusterTrace,
    *,
    fault_time: float,
    slo_s: float,
    window_s: float,
    step_s: float,
    tenants: "set[str] | None" = None,
) -> RecoveryStats:
    """Measure tail recovery after a fault.

    ``recovered_at`` is the earliest sample time at/after ``fault_time``
    such that every later sample's windowed p99 is under ``slo_s`` — a
    sustained recovery, not the first lucky quiet window.  Empty windows
    (NaN) are treated as healthy: no completions means no tail.
    """
    series = windowed_p99(
        trace, window_s=window_s, step_s=step_s, tenants=tenants
    )
    before = [p for t, p in series if t < fault_time]
    after = [(t, p) for t, p in series if t >= fault_time]
    p99_before = before[-1] if before else float("nan")
    finite_after = [p for _, p in after if not math.isnan(p)]
    p99_peak = max(finite_after) if finite_after else float("nan")
    recovered_at = float("inf")
    # scan backwards: the recovery point is where the "all later samples
    # under budget" suffix begins
    for t, p in reversed(after):
        if math.isnan(p) or p <= slo_s:
            recovered_at = t
        else:
            break
    p99_after = finite_after[-1] if finite_after else float("nan")
    return RecoveryStats(
        fault_time=fault_time,
        slo_s=slo_s,
        p99_before_s=p99_before,
        p99_peak_s=p99_peak,
        recovered_at=recovered_at,
        p99_after_s=p99_after,
    )
