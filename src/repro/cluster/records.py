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
from dataclasses import asdict, dataclass, field

from repro.runtime.stats import RecordsView, RequestRecord, _ColumnStore, _Record

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


class AttemptRecord(_Record):
    """One dispatch of a request to one node.

    ``hedge`` is True for latency hedges (raced against a still-live
    attempt).  ``start_time``/``end_time`` are the engine task's times on
    the node (NaN if the attempt never executed: the dispatch was
    blackholed by a crash or partition); ``deliver_time`` is when the
    completion reached the router (>= end_time; a healed partition
    delivers late), NaN if never delivered; ``resolved_time`` when the
    router resolved the attempt (delivery or failover).  ``task_seq`` is
    the engine task's per-node submission index (``Task.submit_seq`` —
    stable across runs, unlike the process-global ``task_id`` counter),
    None if the dispatch never reached an engine.  ``attempt`` is 0 for
    the primary dispatch; retries and hedges increment it.
    """

    __slots__ = (
        "tenant",
        "req_id",
        "attempt",
        "node",
        "dispatch_time",
        "hedge",
        "start_time",
        "end_time",
        "deliver_time",
        "resolved_time",
        "outcome",
        "task_seq",
        "batch_size",
    )
    _fields = __slots__
    _defaults = {
        "hedge": False,
        "start_time": float("nan"),
        "end_time": float("nan"),
        "deliver_time": float("nan"),
        "resolved_time": float("nan"),
        "outcome": "pending",
        "task_seq": None,
        "batch_size": 1,
    }
    _float_fields = frozenset(
        {"dispatch_time", "start_time", "end_time", "deliver_time", "resolved_time"}
    )
    _int_fields = frozenset({"req_id", "attempt", "node", "batch_size"})
    _coded_fields = frozenset({"tenant", "hedge", "outcome"})

    @property
    def ran(self) -> bool:
        """Did the attempt actually execute on its node's engine?"""
        return self.task_seq is not None


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

    def as_request_record(self) -> RequestRecord:
        """Project onto the serving layer's :class:`RequestRecord`, for
        code written against serving records (the benchmark's
        ``cluster_chaos`` workload hands these to its shared checks).
        The cluster's own SLO reports (:mod:`repro.cluster.slo`) read
        cluster records directly."""
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


@dataclass
class ClusterTrace:
    """Deterministic record of one cluster run."""

    requests: list[ClusterRequestRecord] = field(default_factory=list)
    #: typed columns; a read returns a write-through row
    attempts: RecordsView = field(
        default_factory=lambda: RecordsView(_ColumnStore(AttemptRecord, rows=True))
    )
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
            "requests": [asdict(r) for r in self.requests],
            "attempts": [a.as_dict() for a in self.attempts],
            "events": [asdict(e) for e in self.events],
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
