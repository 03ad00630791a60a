"""Per-tenant SLO accounting: latency percentiles, goodput, shed rate.

Aggregates the :class:`~repro.runtime.stats.RequestRecord` stream of a
serving run into the report operators actually look at: per tenant, the
p50/p95/p99 of end-to-end latency with its decomposition into queue
wait, pending (staging/worker) wait and execution time, plus goodput
(completed requests per offered second) and the shed/failure rates that
admission control and fault recovery trade latency against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.runtime.stats import ExecutionTrace


#: the latency quantiles an SLO reports (percent)
QUANTILES = (50.0, 95.0, 99.0)


def percentiles(values: list[float], qs) -> list[float]:
    """Deterministic linear-interpolation percentiles (each q in
    [0, 100]) of ``values``, sorted once."""
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
    if not values:
        return [float("nan")] * len(qs)
    xs = sorted(values)
    out = []
    for q in qs:
        pos = (len(xs) - 1) * q / 100.0
        lo = math.floor(pos)
        frac = pos - lo
        last = lo + 1 >= len(xs)
        out.append(xs[-1] if last else xs[lo] * (1.0 - frac) + xs[lo + 1] * frac)
    return out


def percentile(values: list[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (q in [0, 100])."""
    return percentiles(values, (q,))[0]


@dataclass(frozen=True)
class TenantSlo:
    """One tenant's service-level summary over a run."""

    tenant: str
    n_offered: int
    n_completed: int
    n_shed: int
    n_failed: int
    #: completed requests per second of the offered-load window
    goodput_rps: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_queue_wait_s: float
    mean_pending_wait_s: float
    mean_exec_s: float
    mean_transfer_s: float
    mean_batch_size: float

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_offered if self.n_offered else 0.0


@dataclass
class SloReport:
    """Per-tenant SLO summaries plus run-level aggregates."""

    window_s: float
    tenants: list[TenantSlo] = field(default_factory=list)

    def for_tenant(self, name: str) -> TenantSlo:
        for t in self.tenants:
            if t.tenant == name:
                return t
        raise KeyError(name)

    @property
    def total_offered(self) -> int:
        return sum(t.n_offered for t in self.tenants)

    @property
    def total_completed(self) -> int:
        return sum(t.n_completed for t in self.tenants)

    @property
    def total_shed(self) -> int:
        return sum(t.n_shed for t in self.tenants)

    @property
    def goodput_rps(self) -> float:
        return self.total_completed / self.window_s if self.window_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.total_shed / self.total_offered if self.total_offered else 0.0

    def p99_spread(self) -> float:
        """max/min per-tenant p99 — the fairness headline (1.0 = equal)."""
        p99s = [t.p99_s for t in self.tenants if not math.isnan(t.p99_s)]
        if len(p99s) < 2 or min(p99s) <= 0:
            return float("nan")
        return max(p99s) / min(p99s)

    def to_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "goodput_rps": self.goodput_rps,
            "shed_rate": self.shed_rate,
            "p99_spread": self.p99_spread(),
            "tenants": [
                {
                    "tenant": t.tenant,
                    "offered": t.n_offered,
                    "completed": t.n_completed,
                    "shed": t.n_shed,
                    "failed": t.n_failed,
                    "goodput_rps": t.goodput_rps,
                    "p50_ms": t.p50_s * 1e3,
                    "p95_ms": t.p95_s * 1e3,
                    "p99_ms": t.p99_s * 1e3,
                    "mean_queue_wait_ms": t.mean_queue_wait_s * 1e3,
                    "mean_pending_wait_ms": t.mean_pending_wait_s * 1e3,
                    "mean_exec_ms": t.mean_exec_s * 1e3,
                    "mean_transfer_ms": t.mean_transfer_s * 1e3,
                    "mean_batch_size": t.mean_batch_size,
                }
                for t in self.tenants
            ],
        }


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


def tenant_slo(tenant: str, records, window_s: float) -> TenantSlo:
    """One tenant's summary of its request records: anything with
    ``completed``, ``outcome``, ``latency``, the four request times,
    ``transfer_s`` and ``batch_size`` (a :class:`~repro.runtime.stats.RequestRecord`
    or a cluster record)."""
    done = [r for r in records if r.completed]
    p50, p95, p99 = percentiles([r.latency for r in done], QUANTILES)
    return TenantSlo(
        tenant=tenant,
        n_offered=len(records),
        n_completed=len(done),
        n_shed=sum(1 for r in records if r.outcome == "shed"),
        n_failed=sum(1 for r in records if r.outcome == "failed"),
        goodput_rps=len(done) / window_s if window_s > 0 else 0.0,
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        mean_queue_wait_s=_mean([r.dispatch_time - r.arrival_time for r in done]),
        mean_pending_wait_s=_mean([r.start_time - r.dispatch_time for r in done]),
        mean_exec_s=_mean([r.end_time - r.start_time for r in done]),
        mean_transfer_s=_mean([r.transfer_s for r in done]),
        mean_batch_size=_mean([float(r.batch_size) for r in done]),
    )


def offered_window(requests) -> float:
    """The offered-load window of request records (anything with
    ``arrival_time``, ``end_time`` and ``completed``): first arrival to
    the later of last arrival and last completion; 0 with no requests."""
    if not requests:
        return 0.0
    t0 = min(r.arrival_time for r in requests)
    t1 = max(
        [r.arrival_time for r in requests]
        + [r.end_time for r in requests if r.completed]
    )
    return max(t1 - t0, 0.0)


def slo_report(trace: ExecutionTrace, window_s: float | None = None) -> SloReport:
    """Build the per-tenant report from a serving run's trace.

    ``window_s`` defaults to the :func:`offered_window` of its requests.
    """
    if window_s is None:
        window_s = offered_window(trace.requests)
    report = SloReport(window_s=window_s)
    for tenant in trace.tenants():
        report.tenants.append(
            tenant_slo(tenant, trace.requests_for(tenant), window_s)
        )
    return report


def format_slo_report(report: SloReport, title: str = "SLO report") -> str:
    lines = [
        f"{title}: window {report.window_s * 1e3:.1f} ms, "
        f"goodput {report.goodput_rps:.1f} req/s, "
        f"shed {report.shed_rate:.1%}, p99 spread "
        + (
            "n/a"
            if math.isnan(report.p99_spread())
            else f"{report.p99_spread():.2f}x"
        ),
        f"{'tenant':<12s} {'offered':>8s} {'done':>6s} {'shed':>6s} "
        f"{'fail':>5s} {'p50':>9s} {'p95':>9s} {'p99':>9s} "
        f"{'queue':>9s} {'pend':>9s} {'exec':>9s} {'batch':>6s}",
    ]
    for t in report.tenants:
        lines.append(
            f"{t.tenant:<12s} {t.n_offered:8d} {t.n_completed:6d} "
            f"{t.n_shed:6d} {t.n_failed:5d} "
            f"{t.p50_s * 1e3:7.2f}ms {t.p95_s * 1e3:7.2f}ms "
            f"{t.p99_s * 1e3:7.2f}ms {t.mean_queue_wait_s * 1e3:7.2f}ms "
            f"{t.mean_pending_wait_s * 1e3:7.2f}ms "
            f"{t.mean_exec_s * 1e3:7.2f}ms {t.mean_batch_size:6.2f}"
        )
    return "\n".join(lines)
