"""Cluster-level invariants: distributed-correctness checks after a run.

The single-machine :class:`~repro.check.invariants.TraceChecker`
validates each node's engine trace in isolation; this module checks the
properties that only exist *between* nodes — the ones chaos testing is
supposed to threaten:

- ``cluster.dead-node-execution`` — a crashed node executes nothing
  after its crash instant: every dispatch to it at or after the crash
  was blackholed (never reached the engine), no attempt that did run
  there was applied if it finished after the crash, and no engine task
  on the node *started* after the crash.
- ``cluster.exactly-once`` — each completed request has exactly one
  ``applied`` attempt; shed and failed requests have none.  Failover
  plus hedging must never double-apply an invocation.
- ``cluster.attempt-overlap`` — a request's non-hedge attempts do not
  overlap in time: a retry is dispatched only after its predecessor was
  resolved (delivered, failed, or declared lost).  Hedges are exempt —
  racing a live attempt is their entire point.
- ``cluster.settled-dispatch`` — no attempt of a completed request is
  dispatched after the request's completion was applied: a copy still
  queued when its request settles is dropped before it reaches an
  engine.
- ``cluster.hedge-budget`` — no request has more hedge attempts than
  the cluster's ``HedgePolicy.max_hedges`` (none without a policy): a
  re-armed hedge timer stops once the budget is spent.
- ``cluster.outcome-vocabulary`` / unresolved attempts — every attempt
  ends the run resolved, with a known outcome.

Per-node engine traces are additionally run through the full
single-machine checker, so a cluster check subsumes PR 4's physical
invariants on every node.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

from repro.check.invariants import EPS, TraceChecker
from repro.errors import InvariantViolation
from repro.cluster.records import ATTEMPT_OUTCOMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.router import Cluster


class ClusterChecker:
    """One checking pass over a finished cluster run."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.trace = cluster.trace
        self.violations: list[InvariantViolation] = []

    def run(self) -> list[InvariantViolation]:
        self._check_outcomes()
        self._check_dead_node_execution()
        self._check_exactly_once()
        self._check_attempt_overlap()
        self._check_settled_dispatch()
        self._check_hedge_budget()
        self._check_node_engines()
        return self.violations

    def _fail(self, rule: str, detail: str, events=()) -> None:
        self.violations.append(InvariantViolation(rule, detail, tuple(events)))

    # -- vocabulary and resolution ------------------------------------------

    def _check_outcomes(self) -> None:
        for a in self.trace.attempts:
            label = f"attempt:{a.tenant}:{a.req_id}#{a.attempt}"
            if a.outcome not in ATTEMPT_OUTCOMES:
                self._fail(
                    "cluster.outcome-vocabulary",
                    f"unknown attempt outcome {a.outcome!r}",
                    (label,),
                )
            elif a.outcome == "pending":
                self._fail(
                    "cluster.attempt-unresolved",
                    "attempt still pending after the run finished",
                    (label,),
                )

    # -- crashed nodes execute nothing --------------------------------------

    def _check_dead_node_execution(self) -> None:
        for nid, node in self.cluster.nodes.items():
            crash = node.crashed_at
            if crash is None:
                continue
            for a in self.trace.attempts:
                if a.node != nid:
                    continue
                label = f"attempt:{a.tenant}:{a.req_id}#{a.attempt}"
                if a.dispatch_time >= crash - EPS and a.ran:
                    self._fail(
                        "cluster.dead-node-execution",
                        f"node {nid} crashed at t={crash:.9f} but executed "
                        f"a dispatch from t={a.dispatch_time:.9f} "
                        f"(task seq {a.task_seq})",
                        (label,),
                    )
                if (
                    a.ran
                    and a.end_time > crash + EPS
                    and a.outcome == "applied"
                ):
                    self._fail(
                        "cluster.dead-node-execution",
                        f"node {nid} crashed at t={crash:.9f} mid-execution "
                        f"of task seq {a.task_seq} (end t={a.end_time:.9f}) "
                        f"but its completion was applied",
                        (label,),
                    )
            # ground truth from the node's own engine: nothing started
            # after the crash instant
            for rec in node.engine.trace.tasks:
                if rec.start_time > crash + EPS:
                    self._fail(
                        "cluster.dead-node-execution",
                        f"node {nid} crashed at t={crash:.9f} but its engine "
                        f"started task#{rec.task_id} at t={rec.start_time:.9f}",
                        (f"node{nid}:task#{rec.task_id}",),
                    )

    # -- exactly-once completion --------------------------------------------

    def _check_exactly_once(self) -> None:
        applied = Counter(
            (a.tenant, a.req_id)
            for a in self.trace.attempts
            if a.outcome == "applied"
        )
        for r in self.trace.requests:
            n = applied.pop((r.tenant, r.req_id), 0)
            want = 1 if r.outcome == "completed" else 0
            if n != want:
                self._fail(
                    "cluster.exactly-once",
                    f"{r.outcome} request has {n} applied attempts, "
                    f"expected {want} — a failed-over or hedged invocation "
                    f"must be applied exactly once",
                    (f"request:{r.tenant}:{r.req_id}",),
                )
        for (tenant, req_id), n in applied.items():
            self._fail(
                "cluster.exactly-once",
                f"{n} applied attempts for a request with no final record",
                (f"request:{tenant}:{req_id}",),
            )

    # -- retries do not overlap ---------------------------------------------

    def _check_attempt_overlap(self) -> None:
        by_req: dict[tuple[str, int], list] = {}
        for a in self.trace.attempts:
            if not a.hedge:
                by_req.setdefault((a.tenant, a.req_id), []).append(a)
        for (tenant, req_id), attempts in by_req.items():
            attempts.sort(key=lambda a: a.attempt)
            for prev, nxt in zip(attempts, attempts[1:]):
                if math.isnan(prev.resolved_time):
                    continue  # already flagged as unresolved
                if nxt.dispatch_time < prev.resolved_time - EPS:
                    self._fail(
                        "cluster.attempt-overlap",
                        f"retry #{nxt.attempt} dispatched at "
                        f"t={nxt.dispatch_time:.9f} while attempt "
                        f"#{prev.attempt} was unresolved until "
                        f"t={prev.resolved_time:.9f}",
                        (
                            f"attempt:{tenant}:{req_id}#{prev.attempt}",
                            f"attempt:{tenant}:{req_id}#{nxt.attempt}",
                        ),
                    )

    # -- settled requests dispatch nothing ----------------------------------

    def _check_settled_dispatch(self) -> None:
        done = {
            (r.tenant, r.req_id): r.end_time
            for r in self.trace.requests
            if r.outcome == "completed"
        }
        for a in self.trace.attempts:
            end = done.get((a.tenant, a.req_id))
            if end is not None and a.dispatch_time > end + EPS:
                self._fail(
                    "cluster.settled-dispatch",
                    f"attempt #{a.attempt} dispatched at "
                    f"t={a.dispatch_time:.9f} after its request completed "
                    f"at t={end:.9f}",
                    (f"attempt:{a.tenant}:{a.req_id}#{a.attempt}",),
                )

    # -- hedges stay within the policy's budget ----------------------------

    def _check_hedge_budget(self) -> None:
        budget = self.cluster.hedge.max_hedges if self.cluster.hedge else 0
        hedges = Counter(
            (a.tenant, a.req_id) for a in self.trace.attempts if a.hedge
        )
        for (tenant, req_id), n in hedges.items():
            if n > budget:
                self._fail(
                    "cluster.hedge-budget",
                    f"{n} hedge attempts, the policy allows {budget}",
                    (f"request:{tenant}:{req_id}",),
                )

    # -- per-node physical invariants ---------------------------------------

    def _check_node_engines(self) -> None:
        for nid, node in self.cluster.nodes.items():
            checker = TraceChecker(node.engine.trace, node.engine.machine)
            for v in checker.run():
                self._fail(
                    v.rule,
                    f"node {nid}: {v.detail}",
                    tuple(f"node{nid}:{e}" for e in v.events),
                )


def check_cluster(cluster: "Cluster") -> list[InvariantViolation]:
    """Validate a finished cluster run; returns all violations found."""
    return ClusterChecker(cluster).run()


def assert_cluster_legal(cluster: "Cluster") -> None:
    """Raise the first violation (with a count of the rest) if the
    cluster run breaks any distributed or per-node invariant."""
    violations = check_cluster(cluster)
    if violations:
        first = violations[0]
        more = (
            f" (+{len(violations) - 1} more violations)"
            if len(violations) > 1
            else ""
        )
        raise InvariantViolation(
            first.rule, first.detail + more, first.events
        )
