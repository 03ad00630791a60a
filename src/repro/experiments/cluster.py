"""Chaos study: cluster serving under node crashes, stragglers, partitions.

The serving study asked what one machine does under multi-tenant load;
this study puts O(10) simulated nodes behind the cluster router and
kills some of them mid-sweep.  One ablation, three runs:

- **baseline** — the full tenant mix on a healthy cluster: the SLO
  numbers failure handling is judged against;
- **chaos** — the *same seed and same offered load*, but a scripted
  chaos plan fires mid-sweep: one node crashes, one becomes a 6x
  straggler, one is partitioned and later heals.  The run exercises the
  whole resilience stack — phi-accrual detection, consistent-hash
  failover, retry backoff, hedging against the straggler, duplicate
  suppression when the healed partition delivers late completions, and
  brown-out shedding of the best-effort class while capacity is down;
- **chaos, again** — byte-identical trace digest required.  Chaos does
  not get to break determinism.

The headline metrics are *SLO under failure* (protected tenants' p99
with and without chaos, side by side) and *recovery time* (from the
crash instant until the protected tenants' sliding-window p99 is back
under budget and stays there).  The run fails — non-zero exit, for CI —
if recovery exceeds its budget, the post-recovery tail is over SLO, any
cluster invariant is violated (exactly-once, dead-node execution), or
the two chaos runs disagree.

Run ``python -m repro.experiments.cluster`` for the full O(100k)
request sweep, ``--smoke`` for a seconds-long CI version.  Everything
is virtual-time simulation: every number is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import (
    BrownoutPolicy,
    Cluster,
    ClusterTenant,
    ClusterTrace,
    HashRing,
    HedgePolicy,
    NodeFaultModel,
    cluster_slo_report,
    recovery_stats,
)
from repro.cluster.slo import RecoveryStats
from repro.experiments.runner import Study, cli, table
from repro.serve.slo import SloReport, format_slo_report

#: protected tenants' latency budget: well above the healthy tail,
#: well below the detection-plus-failover spike
PROTECTED_SLO_S = 1e-3
#: sliding window for the recovery-time p99 series
RECOVERY_WINDOW_S = 2e-2
RECOVERY_STEP_S = 5e-3
#: ceiling on acceptable recovery time (detection + backoff + drain)
RECOVERY_BUDGET_S = 0.25
#: ceiling on the no-fault baseline's hedges, as a share of its requests:
#: a hedge deadline learned from clean responses must not race healthy
#: traffic
HEALTHY_HEDGE_BUDGET = 0.01


def chaos_tenant_mix(n_requests: int, rate_hz: float, seed: int = 0) -> list[ClusterTenant]:
    """The study's tenant mix: two protected production tenants, one
    mid-priority service, one best-effort batch class (the brown-out
    victim).  ``n_requests`` and ``rate_hz`` are totals, split by the
    tenants' traffic shares."""
    shares = (0.3, 0.3, 0.25, 0.15)
    plan = [
        ("prod-a", "sgemm", 64, 2, PROTECTED_SLO_S * 1e3),
        ("prod-b", "sgemm", 96, 2, PROTECTED_SLO_S * 1e3),
        ("svc", "bfs", 200, 1, 20.0),
        ("batch", "pathfinder", 48, 0, float("inf")),
    ]
    return [
        ClusterTenant(
            name=name,
            workload=workload,
            size=size,
            rate_hz=rate_hz * share,
            n_requests=max(int(n_requests * share), 8),
            seed=seed * 101 + i,
            priority=priority,
            slo_ms=slo_ms,
        )
        for i, ((name, workload, size, priority, slo_ms), share) in enumerate(
            zip(plan, shares)
        )
    ]


def targeted_chaos(
    n_nodes: int,
    tenants: list[ClusterTenant],
    *,
    at: float,
    stagger_s: float = 0.02,
    slow_factor: float = 100.0,
    partition_for: float = 0.1,
    vnodes: int = 32,
) -> NodeFaultModel:
    """A chaos plan that hits nodes actually serving traffic.

    A random victim on a sparsely-keyed ring often serves nobody, which
    makes for a vacuous chaos test.  This plan aims each fault at a node
    actually serving traffic: the *crash* lands on the highest-priority
    tenant's primary (the transient the recovery-time metric measures),
    while the permanent *straggler* and the *partition* land on the
    lowest-priority tenants' primaries (their classes tolerate the
    degradation; the protected tail must recover).  Still fully
    deterministic: the ring is a pure function of the member set.
    """
    ring = HashRing(range(n_nodes), vnodes=vnodes)
    victims: list[int] = []

    def first_primary(specs) -> None:
        for spec in specs:
            for nid in ring.preference(spec.name):
                if nid not in victims:
                    victims.append(nid)
                    return
        # degenerate mixes: fall back to any untouched node
        victims.append(next(i for i in range(n_nodes) if i not in victims))

    by_prio = sorted(
        tenants, key=lambda s: (-getattr(s, "priority", 1), s.name)
    )
    first_primary(by_prio)  # crash: the protected class's primary
    first_primary(reversed(by_prio))  # straggler: best-effort primary
    first_primary(reversed(by_prio))  # partition: next best-effort primary
    crash, slow, part = victims[:3]
    return NodeFaultModel(
        crash_at={crash: at},
        slow_at={slow: (at + stagger_s, slow_factor)},
        partition_at={
            part: (at + 2 * stagger_s, at + 2 * stagger_s + partition_for)
        },
    )


def build_cluster(
    n_nodes: int,
    tenants: list[ClusterTenant],
    seed: int,
    node_faults: NodeFaultModel | None,
    check: bool,
) -> Cluster:
    return Cluster(
        n_nodes,
        tenants,
        seed=seed,
        replication=2,
        node_faults=node_faults,
        # 2 ms is the cold-start deadline and the ceiling; each tenant's
        # recent clean responses bring it down, and an overdue hedge
        # hedges once more (the spillover tier once both replicas are
        # tried)
        hedge=HedgePolicy(after_s=2e-3, max_hedges=2),
        brownout=BrownoutPolicy(high_water=3.0, low_water=1.0),
        check=check,
    )


@dataclass(frozen=True)
class TenantComparison:
    """One tenant's SLO with and without chaos, side by side."""

    tenant: str
    priority: int
    baseline_p99_ms: float
    chaos_p99_ms: float
    baseline_shed_rate: float
    chaos_shed_rate: float
    baseline_completed: int
    chaos_completed: int
    #: the tenant's hedge deadline when each run ended
    baseline_hedge_ms: float
    chaos_hedge_ms: float


@dataclass
class ChaosAblationResult:
    """Everything ``BENCH_cluster.json`` records for one ablation."""

    n_nodes: int
    n_requests: int
    rate_hz: float
    seed: int
    crash_time: float
    detected_at: float
    tenants: list[TenantComparison] = field(default_factory=list)
    recovery: RecoveryStats | None = None
    n_failovers: int = 0
    n_hedges: int = 0
    baseline_hedges: int = 0
    n_duplicates_suppressed: int = 0
    n_brownout_shed: int = 0
    chaos_failed: int = 0
    n_violations: int = 0
    digest: str = ""
    digest_repeat: str = ""

    @property
    def deterministic(self) -> bool:
        return bool(self.digest) and self.digest == self.digest_repeat

    @property
    def detection_latency_s(self) -> float:
        return self.detected_at - self.crash_time

    def protected(self) -> list[TenantComparison]:
        top = max(t.priority for t in self.tenants)
        return [t for t in self.tenants if t.priority == top]

    def gates(self) -> dict[str, bool]:
        """The CI gates: deterministic, invariant-clean, recovered in
        budget, protected tenants' post-recovery tail under SLO, zero
        protected-tenant requests lost outright, and a healthy cluster
        hedging at most :data:`HEALTHY_HEDGE_BUDGET` of its requests."""
        rec = self.recovery
        return {
            "deterministic": self.deterministic,
            "invariants": not self.n_violations,
            "recovered_in_budget": rec is not None
            and rec.recovered
            and rec.recovery_s <= RECOVERY_BUDGET_S,
            # a NaN tail (no post-recovery sample) compares False: passes
            "p99_after_under_slo": rec is not None
            and not rec.p99_after_s > rec.slo_s,
            "protected_served": all(
                t.chaos_completed > 0 and t.chaos_shed_rate < 1.0
                for t in self.protected()
            ),
            "healthy_hedge_rate": self.baseline_hedges
            <= HEALTHY_HEDGE_BUDGET * self.n_requests,
        }

    def passed(self) -> bool:
        return all(self.gates().values())

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_requests": self.n_requests,
            "rate_hz": self.rate_hz,
            "seed": self.seed,
            "crash_time": self.crash_time,
            "detected_at": self.detected_at,
            "detection_latency_ms": self.detection_latency_s * 1e3,
            "tenants": [vars(t) for t in self.tenants],
            "recovery": self.recovery.to_dict() if self.recovery else None,
            "n_failovers": self.n_failovers,
            "n_hedges": self.n_hedges,
            "baseline_hedges": self.baseline_hedges,
            "n_duplicates_suppressed": self.n_duplicates_suppressed,
            "n_brownout_shed": self.n_brownout_shed,
            "chaos_failed": self.chaos_failed,
            "n_violations": self.n_violations,
            "deterministic": self.deterministic,
            "digest": self.digest,
            "passed": self.passed(),
        }


def _detected_at(trace: ClusterTrace, crashed_node: int, after: float) -> float:
    times = trace.array("events", "time")[
        trace.where("events", kind="dead", node=crashed_node)
    ]
    later = times[times >= after]
    return float(later[0]) if len(later) else float("nan")


def run_chaos_ablation(
    n_nodes: int = 8,
    n_requests: int = 100_000,
    rate_hz: float = 12_000.0,
    seed: int = 3,
    check: bool = True,
) -> "tuple[ChaosAblationResult, SloReport, SloReport]":
    """The study: baseline vs chaos at the same seed, plus a repeat
    chaos run for the determinism digest."""
    tenants = chaos_tenant_mix(n_requests, rate_hz, seed=seed)
    # mid-sweep: the crash lands halfway through the offered window
    t_fault = 0.5 * n_requests / rate_hz
    plan = targeted_chaos(
        n_nodes,
        tenants,
        at=t_fault,
        partition_for=0.25 * n_requests / rate_hz,
    )
    (crashed_node,) = plan.crash_at

    baseline_cluster = build_cluster(n_nodes, tenants, seed, None, check)
    baseline = baseline_cluster.run()
    chaos_cluster = build_cluster(n_nodes, tenants, seed, plan, check)
    chaos = chaos_cluster.run()
    repeat = build_cluster(n_nodes, tenants, seed, plan, False).run()

    # the invariant sweep already ran inside .run() when check=True (it
    # raises on violation); re-run it explicitly so the bench records a
    # count either way
    from repro.check.cluster import check_cluster

    violations = check_cluster(chaos_cluster)

    base_report = cluster_slo_report(baseline)
    chaos_report = cluster_slo_report(chaos)
    protected = {
        t.name for t in tenants if t.priority == max(x.priority for x in tenants)
    }
    result = ChaosAblationResult(
        n_nodes=n_nodes,
        n_requests=sum(t.n_requests for t in tenants),
        rate_hz=rate_hz,
        seed=seed,
        crash_time=plan.crash_at[crashed_node],
        detected_at=_detected_at(chaos, crashed_node, t_fault),
        recovery=recovery_stats(
            chaos,
            fault_time=plan.crash_at[crashed_node],
            slo_s=PROTECTED_SLO_S,
            window_s=RECOVERY_WINDOW_S,
            step_s=RECOVERY_STEP_S,
            tenants=protected,
        ),
        n_failovers=chaos.n_failovers,
        n_hedges=chaos.n_hedges,
        baseline_hedges=baseline.n_hedges,
        n_duplicates_suppressed=chaos.n_duplicates_suppressed,
        n_brownout_shed=len(chaos.where("requests", shed_reason="brownout")),
        chaos_failed=chaos.n_failed,
        n_violations=len(violations),
        digest=chaos.digest(),
        digest_repeat=repeat.digest(),
    )
    for spec in tenants:
        b = base_report.for_tenant(spec.name)
        c = chaos_report.for_tenant(spec.name)
        result.tenants.append(
            TenantComparison(
                tenant=spec.name,
                priority=spec.priority,
                baseline_p99_ms=b.p99_s * 1e3,
                chaos_p99_ms=c.p99_s * 1e3,
                baseline_shed_rate=b.shed_rate,
                chaos_shed_rate=c.shed_rate,
                baseline_completed=b.n_completed,
                chaos_completed=c.n_completed,
                baseline_hedge_ms=baseline_cluster.hedge_deadline(spec.name) * 1e3,
                chaos_hedge_ms=chaos_cluster.hedge_deadline(spec.name) * 1e3,
            )
        )
    return result, base_report, chaos_report


def format_chaos_ablation(result: ChaosAblationResult) -> str:
    r = result.recovery
    return table(
        f"Chaos ablation: {result.n_nodes} nodes, "
        f"{result.n_requests} requests at {result.rate_hz:.0f} req/s "
        f"(seed {result.seed})",
        ("tenant", "prio", "base p99 (ms)", "chaos p99 (ms)", "base shed",
         "chaos shed", "done (base/chaos)", "hedge at (ms, base/chaos)"),
        [
            (t.tenant, t.priority, f"{t.baseline_p99_ms:.2f}",
             f"{t.chaos_p99_ms:.2f}", f"{t.baseline_shed_rate:.1%}",
             f"{t.chaos_shed_rate:.1%}",
             f"{t.baseline_completed}/{t.chaos_completed}",
             f"{t.baseline_hedge_ms:.3f}/{t.chaos_hedge_ms:.3f}")
            for t in result.tenants
        ],
        [
            f"crash at t={result.crash_time * 1e3:.1f}ms, detected "
            f"{result.detection_latency_s * 1e3:.2f}ms later; "
            f"{result.n_failovers} failovers, {result.n_hedges} hedges, "
            f"{result.n_duplicates_suppressed} duplicates suppressed, "
            f"{result.n_brownout_shed} brown-out sheds, "
            f"{result.chaos_failed} requests failed",
            f"protected p99: peak {r.p99_peak_s * 1e3:.2f}ms -> "
            f"recovered under {r.slo_s * 1e3:.1f}ms budget in "
            f"{r.recovery_s * 1e3:.1f}ms (steady state "
            f"{r.p99_after_s * 1e3:.2f}ms)"
            if r and r.recovered
            else "protected p99 never recovered under budget",
            f"no-fault baseline: {result.baseline_hedges} hedges of "
            f"{result.n_requests} requests",
            f"invariants: {result.n_violations} violations; same-seed chaos "
            f"runs {'identical' if result.deterministic else 'DIVERGED'} "
            f"(digest {result.digest[:16]})",
        ],
    )


def study(smoke: bool) -> Study:
    if smoke:
        result, base_report, chaos_report = run_chaos_ablation(
            n_nodes=6, n_requests=6_000, rate_hz=10_000.0
        )
    else:
        result, base_report, chaos_report = run_chaos_ablation()
    text = "\n\n".join([
        format_chaos_ablation(result),
        format_slo_report(base_report, title="baseline"),
        format_slo_report(chaos_report, title="under chaos"),
    ])
    return Study(
        report=text,
        doc={"smoke": smoke, "chaos": result.to_dict()},
        bench="cluster",
        tables={"cluster_chaos": text},
        gates=result.gates(),
    )


if __name__ == "__main__":
    raise SystemExit(cli(study))
