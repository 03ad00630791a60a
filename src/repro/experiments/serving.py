"""Serving study: multi-tenant throughput/latency on one machine.

The paper composes one application at a time; this study asks what
happens when the composed components are put behind a service endpoint
and several tenants offer load concurrently (the ROADMAP's "serves
heavy traffic" north star).  Three questions, each one sweep:

- ``run_serving_study`` — goodput and tail latency as offered load and
  tenant count grow, per scheduling policy.  Shows the saturation knee
  and how coalescing holds goodput past it;
- ``admission_ablation`` — the same overload offered to an unbounded
  queue versus depth- and backlog-bounded admission.  Unbounded
  admission trades a 0% shed rate for unbounded p99 (queueing
  collapse); bounded admission sheds a fraction and caps the tail;
- ``fairness_ablation`` — a heavy and a light tenant of near-identical
  per-request cost.  Throughput-greedy dispatch (``eager``) starves the
  light tenant's minority shape; the ``fair`` policy's weighted fair
  queueing keeps per-tenant p99s within a small factor.

Run ``python -m repro.experiments.serving`` to regenerate the tables in
``benchmarks/results/`` plus the machine-readable ``BENCH_serve.json``
summary (``--smoke`` shrinks the load sweep to a seconds-long CI run).
Both ablations run at full size either way, and the run fails unless
bounded admission sheds and caps p99 and greedy dispatch starves the
light tenant while ``fair`` does not: the gates that keep the offered
load (:data:`OVERLOAD_HZ`) over capacity.

All runs are virtual-time simulations with seeded arrivals: every
number is deterministic and the wall-clock cost is bookkeeping only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.experiments.runner import Study, cli, table
from repro.hw.description import Machine
from repro.hw.presets import platform_c2050
from repro.runtime.perfmodel import PerfModel
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    CompositionServer,
    SloReport,
    TenantSpec,
    format_slo_report,
)
from repro.serve.slo import percentile

#: dispatch policies compared (fair = WFQ dispatch + fair placement)
SCHEDULERS = ("eager", "dmda", "fair")

#: tuned serving knobs: the dispatch queue only exists (and batching /
#: fairness only matter) when in-flight tasks are capped near the
#: worker count and buckets can grow past one batch
BATCH = BatchPolicy(max_batch=4)
MAX_INFLIGHT = 4
TENANT_QUOTA = 16

#: the ablations' overload: about 1.3x the C2050's served sgemm-256
#: capacity (~26.9k req/s, one dmda tenant offered 200k req/s), so
#: bounded admission sheds and greedy dispatch starves
OVERLOAD_HZ = 35_000.0


def tenant_mix(
    n_tenants: int,
    rate_hz: float,
    n_requests: int,
    seed: int = 0,
    heavy_share: float = 0.75,
) -> list[TenantSpec]:
    """``n_tenants`` sgemm tenants of near-identical per-request cost.

    Tenant 0 offers ``heavy_share`` of the total rate; the rest split
    the remainder.  Sizes differ by one (256, 255, ...) so each tenant
    owns a distinct coalescer bucket while per-request cost stays
    comparable — the setup where dispatch *ordering*, not work
    imbalance, decides the per-tenant tails.
    """
    if n_tenants < 1:
        raise ValueError(f"n_tenants must be >= 1, got {n_tenants}")
    specs = []
    for i in range(n_tenants):
        if n_tenants == 1:
            rate = rate_hz
        elif i == 0:
            rate = rate_hz * heavy_share
        else:
            rate = rate_hz * (1.0 - heavy_share) / (n_tenants - 1)
        share = rate / rate_hz
        specs.append(
            TenantSpec(
                name=f"t{i}",
                workload="sgemm",
                size=256 - i,
                rate_hz=rate,
                n_requests=max(int(n_requests * share), 4),
                seed=seed * 101 + i,
            )
        )
    return specs


def calibrate_perfmodel(
    machine: Machine, tenants: list[TenantSpec], seed: int = 99
) -> PerfModel:
    """Warm a perfmodel on every tenant shape via a closed-loop run.

    A cold model makes early placement decisions garbage (the scheduler
    has no timings to compare variants with), which would pollute the
    measured tails; real serving systems warm up before taking traffic.
    """
    warm = [
        TenantSpec(
            name=f"warm{i}",
            workload=t.workload,
            size=t.size,
            rate_hz=None,
            n_requests=24,
            concurrency=2,
            seed=seed + i,
        )
        for i, t in enumerate(tenants)
    ]
    with CompositionServer(machine, tenants=warm, scheduler="dmda") as server:
        server.run()
    return server.engine.perf


def _serve(
    machine: Machine,
    tenants: list[TenantSpec],
    scheduler: str,
    admission: AdmissionPolicy | None,
    perfmodel: PerfModel,
) -> tuple[SloReport, CompositionServer]:
    server = CompositionServer(
        machine,
        tenants=tenants,
        scheduler=scheduler,
        admission=admission,
        batching=BATCH,
        max_inflight=MAX_INFLIGHT,
        # each run gets its own copy so measurements do not leak
        # calibration between compared cells
        perfmodel=copy.deepcopy(perfmodel),
    )
    report = server.run()
    # close the session so shutdown-time hooks (trace invariant
    # checking, store merges) actually run for every measured cell
    server.shutdown()
    return report, server


# ---------------------------------------------------------------------------
# the load sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingCell:
    """One (scheduler, offered rate, tenant count) measurement."""

    scheduler: str
    rate_hz: float
    n_tenants: int
    goodput_rps: float
    shed_rate: float
    p50_ms: float
    p99_ms: float
    p99_spread: float
    mean_batch: float


@dataclass
class ServingStudyResult:
    platform: str
    cells: list[ServingCell] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "cells": [vars(c) for c in self.cells],
        }


def run_serving_study(
    machine: Machine | None = None,
    rates: tuple[float, ...] = (2000.0, 8000.0, OVERLOAD_HZ),
    tenant_counts: tuple[int, ...] = (2, 4),
    schedulers: tuple[str, ...] = SCHEDULERS,
    n_requests: int = 400,
    seed: int = 0,
) -> ServingStudyResult:
    """Sweep offered rate x tenant count x scheduler under admission."""
    machine = machine or platform_c2050()
    result = ServingStudyResult(platform=machine.name)
    admission = AdmissionPolicy(max_queue_per_tenant=TENANT_QUOTA)
    for n_tenants in tenant_counts:
        tenants = tenant_mix(n_tenants, rates[0], n_requests, seed=seed)
        perf = calibrate_perfmodel(machine, tenants)
        for rate in rates:
            tenants = tenant_mix(n_tenants, rate, n_requests, seed=seed)
            for sched in schedulers:
                report, server = _serve(machine, tenants, sched, admission, perf)
                lat = [
                    r.latency
                    for r in server.trace.requests
                    if r.completed
                ]
                result.cells.append(
                    ServingCell(
                        scheduler=sched,
                        rate_hz=rate,
                        n_tenants=n_tenants,
                        goodput_rps=report.goodput_rps,
                        shed_rate=report.shed_rate,
                        p50_ms=percentile(lat, 50) * 1e3,
                        p99_ms=percentile(lat, 99) * 1e3,
                        p99_spread=report.p99_spread(),
                        mean_batch=server.coalescer.mean_batch_size,
                    )
                )
    return result


def format_serving_study(result: ServingStudyResult) -> str:
    return table(
        f"Serving study ({result.platform}): goodput / tail latency "
        f"under admission (quota {TENANT_QUOTA}/tenant, batch <= "
        f"{BATCH.max_batch})",
        ("sched", "rate (req/s)", "tenants", "goodput (req/s)", "shed",
         "p50 (ms)", "p99 (ms)", "spread", "batch"),
        [
            (c.scheduler, f"{c.rate_hz:.0f}", c.n_tenants,
             f"{c.goodput_rps:.0f}", f"{c.shed_rate:.1%}", f"{c.p50_ms:.2f}",
             f"{c.p99_ms:.2f}",
             "n/a" if c.p99_spread != c.p99_spread else f"{c.p99_spread:.2f}x",
             f"{c.mean_batch:.2f}")
            for c in result.cells
        ],
    )


# ---------------------------------------------------------------------------
# admission ablation: bounded vs unbounded queueing at overload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionCell:
    label: str
    p99_ms: float
    mean_queue_wait_ms: float
    shed_rate: float
    goodput_rps: float


@dataclass
class AdmissionAblationResult:
    platform: str
    rate_hz: float
    cells: list[AdmissionCell] = field(default_factory=list)

    def cell(self, label: str) -> AdmissionCell:
        for c in self.cells:
            if c.label == label:
                return c
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "rate_hz": self.rate_hz,
            "cells": [vars(c) for c in self.cells],
        }


def admission_ablation(
    machine: Machine | None = None,
    rate_hz: float = OVERLOAD_HZ,
    n_requests: int = 400,
    seed: int = 5,
) -> AdmissionAblationResult:
    """One overloaded tenant, three admission policies.

    The unbounded queue admits everything and every admitted request
    pays for the backlog ahead of it; depth- and backlog-bounded
    admission shed the excess and cap the tail.
    """
    machine = machine or platform_c2050()
    tenants = [
        TenantSpec(
            "t0", workload="sgemm", size=256, rate_hz=rate_hz,
            n_requests=n_requests, seed=seed,
        )
    ]
    perf = calibrate_perfmodel(machine, tenants)
    policies = [
        ("unbounded", None),
        ("depth<=16", AdmissionPolicy(max_queue_depth=16)),
        ("backlog<=0.5ms", AdmissionPolicy(max_backlog_s=5e-4)),
        (
            "delay<=1ms",
            AdmissionPolicy(
                max_queue_depth=16, on_overload="delay", max_delay_s=0.001
            ),
        ),
    ]
    result = AdmissionAblationResult(platform=machine.name, rate_hz=rate_hz)
    for label, pol in policies:
        report, _ = _serve(machine, tenants, "dmda", pol, perf)
        t = report.tenants[0]
        result.cells.append(
            AdmissionCell(
                label=label,
                p99_ms=t.p99_s * 1e3,
                mean_queue_wait_ms=t.mean_queue_wait_s * 1e3,
                shed_rate=t.shed_rate,
                goodput_rps=t.goodput_rps,
            )
        )
    return result


def format_admission_ablation(result: AdmissionAblationResult) -> str:
    notes = []
    bounded = [c for c in result.cells if c.label != "unbounded"]
    if bounded:
        un = result.cell("unbounded")
        best = min(bounded, key=lambda c: c.p99_ms)
        notes.append(
            f"bounded admission cuts p99 {un.p99_ms / best.p99_ms:.1f}x "
            f"({un.p99_ms:.2f}ms -> {best.p99_ms:.2f}ms) by shedding "
            f"{best.shed_rate:.0%} of arrivals"
        )
    return table(
        f"Admission ablation ({result.platform}): one tenant offering "
        f"{result.rate_hz:.0f} req/s (over capacity)",
        ("policy", "p99 (ms)", "queue wait (ms)", "shed", "goodput (req/s)"),
        [
            (c.label, f"{c.p99_ms:.2f}", f"{c.mean_queue_wait_ms:.2f}",
             f"{c.shed_rate:.1%}", f"{c.goodput_rps:.0f}")
            for c in result.cells
        ],
        notes,
    )


# ---------------------------------------------------------------------------
# fairness ablation: greedy starvation vs weighted fair queueing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessCell:
    scheduler: str
    heavy_p99_ms: float
    light_p99_ms: float
    p99_spread: float
    shed_rate: float


@dataclass
class FairnessAblationResult:
    platform: str
    cells: list[FairnessCell] = field(default_factory=list)

    def cell(self, scheduler: str) -> FairnessCell:
        for c in self.cells:
            if c.scheduler == scheduler:
                return c
        raise KeyError(scheduler)

    def to_dict(self) -> dict:
        return {"platform": self.platform, "cells": [vars(c) for c in self.cells]}


def fairness_tenants(n_requests: int = 400, seed: int = 7) -> list[TenantSpec]:
    """A flooding tenant plus a light one of near-identical request cost."""
    return [
        TenantSpec(
            "heavy", workload="sgemm", size=256, rate_hz=OVERLOAD_HZ,
            n_requests=n_requests, seed=seed,
        ),
        TenantSpec(
            "light", workload="sgemm", size=255, rate_hz=300.0,
            n_requests=max(n_requests // 25, 4), seed=seed + 1,
        ),
    ]


def fairness_ablation(
    machine: Machine | None = None,
    n_requests: int = 400,
    seed: int = 7,
    schedulers: tuple[str, ...] = ("eager", "fair"),
) -> FairnessAblationResult:
    """Heavy+light tenants under per-tenant quotas, greedy vs fair."""
    machine = machine or platform_c2050()
    tenants = fairness_tenants(n_requests, seed)
    perf = calibrate_perfmodel(machine, tenants)
    admission = AdmissionPolicy(max_queue_per_tenant=TENANT_QUOTA)
    result = FairnessAblationResult(platform=machine.name)
    for sched in schedulers:
        report, _ = _serve(machine, tenants, sched, admission, perf)
        result.cells.append(
            FairnessCell(
                scheduler=sched,
                heavy_p99_ms=report.for_tenant("heavy").p99_s * 1e3,
                light_p99_ms=report.for_tenant("light").p99_s * 1e3,
                p99_spread=report.p99_spread(),
                shed_rate=report.shed_rate,
            )
        )
    return result


def format_fairness_ablation(result: FairnessAblationResult) -> str:
    notes = []
    cells = {c.scheduler: c for c in result.cells}
    if "eager" in cells and "fair" in cells:
        greedy, fair = cells["eager"], cells["fair"]
        notes.append(
            f"greedy dispatch starves the light tenant "
            f"({greedy.light_p99_ms:.2f}ms p99, {greedy.p99_spread:.1f}x "
            f"spread); weighted fair queueing holds the spread to "
            f"{fair.p99_spread:.2f}x"
        )
    return table(
        f"Fairness ablation ({result.platform}): flooding heavy tenant vs "
        "light tenant, same per-request cost",
        ("sched", "heavy p99 (ms)", "light p99 (ms)", "spread", "shed"),
        [
            (c.scheduler, f"{c.heavy_p99_ms:.2f}", f"{c.light_p99_ms:.2f}",
             f"{c.p99_spread:.2f}x", f"{c.shed_rate:.1%}")
            for c in result.cells
        ],
        notes,
    )


def study(smoke: bool) -> Study:
    if smoke:
        # every Runtime the study builds (including calibration) then
        # validates its trace at shutdown
        from repro.check.config import set_default_check

        set_default_check(True)
        result = run_serving_study(
            rates=(4000.0, OVERLOAD_HZ), tenant_counts=(2,), n_requests=120
        )
    else:
        result = run_serving_study()
    # full size at smoke too (well under a second): at 150 heavy
    # requests the light tenant's six are too few for greedy to starve
    adm = admission_ablation()
    fair = fairness_ablation()
    depth = adm.cell("depth<=16")
    tables = {
        "serving_study": format_serving_study(result),
        "serving_admission": format_admission_ablation(adm),
        "serving_fairness": format_fairness_ablation(fair),
    }
    return Study(
        report="\n\n".join(tables.values()),
        doc={
            "smoke": smoke,
            "study": result.to_dict(),
            "admission": adm.to_dict(),
            "fairness": fair.to_dict(),
        },
        bench="serve",
        tables=tables,
        # both ablations only mean something while the load overloads
        gates={
            "admission_sheds_and_caps_p99": (
                depth.shed_rate > 0
                and depth.p99_ms < adm.cell("unbounded").p99_ms
            ),
            "fair_bounds_spread_where_eager_starves": (
                fair.cell("eager").p99_spread > 2.0
                and fair.cell("fair").p99_spread <= 2.0
            ),
        },
    )


if __name__ == "__main__":
    raise SystemExit(cli(study))
