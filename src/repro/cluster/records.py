"""Cluster-level execution records: attempts, requests, control events.

The cluster layer accounts work at a coarser grain than the per-node
engines: a *request* (one tenant invocation, identified by its
idempotency key ``(tenant, req_id)``) fans out into one or more
*attempts* (dispatches of that request to a node — the primary, then
failover retries and latency hedges), and the control plane's own
actions (crashes, detector verdicts, failovers, brown-out toggles) are
recorded as *events*.  Together the three streams form the
:class:`ClusterTrace`, which is fully deterministic for a fixed seed:
its canonical-JSON digest is the identity the chaos experiments compare
across same-seed runs.

Attempt outcome vocabulary:

- ``applied`` — the attempt's completion reached the router first and
  was counted; exactly one per completed request (the invariant
  ``cluster.exactly-once`` in :mod:`repro.check.cluster`).
- ``duplicate`` — the attempt completed, but another attempt had
  already been applied (hedge loser, or a failed-over attempt whose
  response surfaced after a partition healed); suppressed, never
  double-applied.
- ``lost`` — the attempt was outstanding on a node the failure detector
  declared dead and no completion was ever delivered.
- ``failed`` — the node answered with a failure (its own device-level
  fault recovery exhausted its retry budget).
- ``pending`` — not yet resolved (only ever observed mid-run).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.runtime.stats import RequestRecord

#: attempt outcomes (see module docstring)
ATTEMPT_OUTCOMES = ("pending", "applied", "duplicate", "lost", "failed")

#: request outcomes
REQUEST_OUTCOMES = ("completed", "shed", "failed")

#: control-plane event kinds
CLUSTER_EVENT_KINDS = (
    "crash",  # ground truth: a node stopped executing, silently
    "slowdown",  # ground truth: a node's kernels got slower (straggler)
    "partition",  # ground truth: a node became unreachable (still alive)
    "heal",  # ground truth: the partition ended
    "suspect",  # detector: phi crossed the suspicion threshold
    "dead",  # detector: phi crossed the death threshold; failover begins
    "alive",  # detector: a suspected/dead node's heartbeats resumed
    "failover",  # one outstanding request rerouted off a dead node
    "hedge",  # a latency hedge dispatched to a second replica
    "duplicate",  # a duplicate completion suppressed (exactly-once)
    "brownout_on",  # cluster-wide shed of the lowest priority class began
    "brownout_off",  # pressure receded; all tenants admitted again
    "drain_start",  # planned removal: node stops taking new requests
    "drain_done",  # in-flight work finished; node left the ring
)


@dataclass(slots=True)
class AttemptRecord:
    """One dispatch of a request to one node."""

    tenant: str
    req_id: int
    #: 0 = primary dispatch; retries and hedges increment
    attempt: int
    node: int
    dispatch_time: float
    #: True for latency hedges (raced against a still-live attempt)
    hedge: bool = False
    #: engine-task times on the node (NaN if the attempt never executed:
    #: the dispatch was blackholed by a crash or partition)
    start_time: float = float("nan")
    end_time: float = float("nan")
    #: when the completion reached the router (>= end_time; a healed
    #: partition delivers late), NaN if never delivered
    deliver_time: float = float("nan")
    #: when the router resolved the attempt (delivery or failover)
    resolved_time: float = float("nan")
    outcome: str = "pending"
    #: the engine task's per-node submission index (``Task.submit_seq``
    #: — stable across runs, unlike the process-global ``task_id``
    #: counter); None if the dispatch never reached an engine
    task_seq: int | None = None
    batch_size: int = 1

    @property
    def ran(self) -> bool:
        """Did the attempt actually execute on its node's engine?"""
        return self.task_seq is not None

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "req_id": self.req_id,
            "attempt": self.attempt,
            "node": self.node,
            "hedge": self.hedge,
            "dispatch_time": self.dispatch_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "deliver_time": self.deliver_time,
            "resolved_time": self.resolved_time,
            "outcome": self.outcome,
            "task_seq": self.task_seq,
            "batch_size": self.batch_size,
        }


@dataclass(frozen=True, slots=True)
class ClusterRequestRecord:
    """Final accounting of one request (idempotency key ``tenant:req_id``)."""

    tenant: str
    req_id: int
    priority: int
    codelet: str
    arrival_time: float
    outcome: str  # completed | shed | failed
    #: why a shed request was rejected ("brownout", "admission", "no-node")
    shed_reason: str = ""
    #: first dispatch to any node (NaN if shed)
    dispatch_time: float = float("nan")
    #: applied attempt's engine start (NaN unless completed)
    start_time: float = float("nan")
    #: delivery time of the applied completion (NaN unless completed)
    end_time: float = float("nan")
    #: node whose attempt was applied
    served_by: int | None = None
    n_attempts: int = 0
    n_hedges: int = 0
    #: at least one failover (retry on another node) happened
    failed_over: bool = False
    batch_size: int = 1

    #: a cluster request records no staging time
    transfer_s = 0.0

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def latency(self) -> float:
        return self.end_time - self.arrival_time

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "req_id": self.req_id,
            "priority": self.priority,
            "codelet": self.codelet,
            "arrival_time": self.arrival_time,
            "outcome": self.outcome,
            "shed_reason": self.shed_reason,
            "dispatch_time": self.dispatch_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "served_by": self.served_by,
            "n_attempts": self.n_attempts,
            "n_hedges": self.n_hedges,
            "failed_over": self.failed_over,
            "batch_size": self.batch_size,
        }

    def as_request_record(self) -> RequestRecord:
        """Project onto the serving layer's :class:`RequestRecord`, so the
        per-tenant SLO machinery (:func:`repro.serve.slo.tenant_slo`)
        aggregates cluster records unchanged."""
        return RequestRecord.make(
            tenant=self.tenant,
            req_id=self.req_id,
            codelet=self.codelet,
            arrival_time=self.arrival_time,
            shed=self.outcome == "shed",
            failed=self.outcome == "failed",
            dispatch_time=self.dispatch_time,
            start_time=self.start_time,
            end_time=self.end_time,
            batch_size=self.batch_size,
        )


@dataclass(frozen=True, slots=True)
class ClusterEventRecord:
    """One control-plane event (ground-truth fault or router reaction)."""

    kind: str
    time: float
    node: int | None = None
    tenant: str = ""
    req_id: int = -1
    detail: str = ""
    seq: int = -1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "node": self.node,
            "tenant": self.tenant,
            "req_id": self.req_id,
            "detail": self.detail,
            "seq": self.seq,
        }


@dataclass
class ClusterTrace:
    """Deterministic record of one cluster run."""

    requests: list[ClusterRequestRecord] = field(default_factory=list)
    attempts: list[AttemptRecord] = field(default_factory=list)
    events: list[ClusterEventRecord] = field(default_factory=list)

    def tenants(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.requests:
            seen.setdefault(r.tenant)
        return list(seen)

    def requests_for(self, tenant: str) -> list[ClusterRequestRecord]:
        return [r for r in self.requests if r.tenant == tenant]

    def events_of(self, kind: str) -> list[ClusterEventRecord]:
        return [e for e in self.events if e.kind == kind]

    # -- aggregates ---------------------------------------------------------

    @property
    def n_failovers(self) -> int:
        return len(self.events_of("failover"))

    @property
    def n_hedges(self) -> int:
        return len(self.events_of("hedge"))

    @property
    def n_duplicates_suppressed(self) -> int:
        return len(self.events_of("duplicate"))

    @property
    def n_completed(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "completed")

    @property
    def n_shed(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "shed")

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.requests if r.outcome == "failed")

    # -- identity -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "requests": [r.to_dict() for r in self.requests],
            "attempts": [a.to_dict() for a in self.attempts],
            "events": [e.to_dict() for e in self.events],
        }

    def digest(self) -> str:
        """SHA-256 of the canonical JSON serialization.

        Floats serialize via ``repr`` (shortest round-trip), so two
        runs produce the same digest iff every recorded time, outcome
        and ordering is bit-identical — the replay-compatibility bar
        the chaos experiment asserts for same-seed runs.
        """
        blob = json.dumps(
            self.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def completed_latencies(
    trace: ClusterTrace, tenants: "set[str] | None" = None
) -> list[tuple[float, float]]:
    """(completion time, latency) pairs, optionally tenant-filtered —
    the windowed-percentile basis for recovery-time measurement."""
    out = [
        (r.end_time, r.latency)
        for r in trace.requests
        if r.outcome == "completed"
        and not math.isnan(r.end_time)
        and (tenants is None or r.tenant in tenants)
    ]
    out.sort()
    return out
