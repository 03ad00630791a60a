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
across same-seed runs.  Each stream is a store of typed columns, as an
engine trace's records are (:mod:`repro.runtime.stats`): counts in int
arrays, attempt and event times in float arrays, and tenants,
outcomes, event kinds and the None-able node fields dictionary-coded.
The trace's counts, the SLO windows (:mod:`repro.cluster.slo`) and the
cluster metrics (:mod:`repro.cluster.metrics`) are folds over those
columns.

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

import numpy as np

from repro.runtime.stats import (
    RecordsView,
    RequestRecord,
    _ColumnStore,
    _grouped,
    _Record,
)

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


class ClusterRequestRecord(_Record):
    """Final accounting of one request (idempotency key ``tenant:req_id``).

    ``outcome`` is one of :data:`REQUEST_OUTCOMES`; ``shed_reason`` says
    why a shed request was rejected (``"brownout"``, ``"admission"``,
    ``"no-node"``).  ``dispatch_time`` is the first dispatch to any node
    (NaN if shed); ``start_time`` the applied attempt's engine start and
    ``end_time`` the delivery of the applied completion (both NaN unless
    completed).  ``served_by`` is the node whose attempt was applied
    (None unless completed); ``failed_over`` is True once a failover
    (a retry on another node) happened.
    """

    __slots__ = (
        "tenant",
        "req_id",
        "priority",
        "codelet",
        "arrival_time",
        "outcome",
        "shed_reason",
        "dispatch_time",
        "start_time",
        "end_time",
        "served_by",
        "n_attempts",
        "n_hedges",
        "failed_over",
        "batch_size",
    )
    _fields = __slots__
    _defaults = {
        "shed_reason": "",
        "dispatch_time": float("nan"),
        "start_time": float("nan"),
        "end_time": float("nan"),
        "served_by": None,
        "n_attempts": 0,
        "n_hedges": 0,
        "failed_over": False,
        "batch_size": 1,
    }
    # the four times are kept as float objects, not in a float array:
    # a record read shares them, where an array boxes four new floats per
    # read (a second copy of every time for a caller that keeps each
    # record, or projects it with as_request_record)
    _int_fields = frozenset(
        {"req_id", "priority", "n_attempts", "n_hedges", "batch_size"}
    )
    _coded_fields = frozenset(
        {"tenant", "codelet", "outcome", "shed_reason", "served_by", "failed_over"}
    )

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


class ClusterEventRecord(_Record):
    """One control-plane event (ground-truth fault or router reaction),
    ``kind`` one of :data:`CLUSTER_EVENT_KINDS`; ``node`` is None for a
    cluster-wide event (brown-out)."""

    __slots__ = ("kind", "time", "node", "tenant", "req_id", "detail", "seq")
    _fields = __slots__
    _defaults = {"node": None, "tenant": "", "req_id": -1, "detail": "", "seq": -1}
    _float_fields = frozenset({"time"})
    _int_fields = frozenset({"req_id", "seq"})
    _coded_fields = frozenset({"kind", "node", "tenant", "detail"})


def _tally(kind: str, field: str, value) -> property:
    """The count of ``kind`` rows whose coded ``field`` holds ``value``."""
    return property(lambda self: _grouped(self._column(kind, field)).get(value, 0))


class ClusterTrace:
    """Deterministic record of one cluster run: requests, attempts and
    events, each a store of typed columns read as write-through rows
    (the router still updates an attempt once appended).  Every
    aggregate is a fold over the columns on each read."""

    def __init__(self) -> None:
        self.requests = RecordsView(_ColumnStore(ClusterRequestRecord, rows=True))
        self.attempts = RecordsView(_ColumnStore(AttemptRecord, rows=True))
        self.events = RecordsView(_ColumnStore(ClusterEventRecord, rows=True))

    def _view(self, kind: str) -> RecordsView:
        return getattr(self, kind)

    def _column(self, kind: str, field: str):
        """``kind``'s raw ``field`` column, as stored (aggregates only)."""
        return self._view(kind)._store.columns[field]

    def array(self, kind: str, field: str) -> np.ndarray:
        """A NumPy copy of one time or count column of ``kind``."""
        return np.array(self._column(kind, field))

    def where(self, kind: str, /, **match) -> np.ndarray:
        """Row numbers of the ``kind`` records whose coded fields hold
        the given values, each a value or a set of them
        (``trace.where("events", kind="dead", node=3)``)."""
        hit = np.ones(len(self._view(kind)), bool)
        for field, value in match.items():
            col = self._column(kind, field)
            wanted = value if isinstance(value, (set, frozenset)) else {value}
            codes = [col.index[v] for v in wanted if v in col.index]
            hit &= np.isin(np.array(col.codes, np.intp), codes)
        return np.flatnonzero(hit)

    def tenants(self) -> list[str]:
        """Tenant names, in order of first final record."""
        return list(_grouped(self._column("requests", "tenant")))

    def requests_for(self, tenant: str) -> list[ClusterRequestRecord]:
        """``tenant``'s requests; only the matching records are read."""
        rows = self.where("requests", tenant=tenant)
        return [self.requests[i] for i in rows.tolist()]

    def events_of(self, kind: str) -> list[ClusterEventRecord]:
        return [self.events[i] for i in self.where("events", kind=kind).tolist()]

    # -- aggregates ---------------------------------------------------------

    n_failovers = _tally("events", "kind", "failover")
    n_hedges = _tally("events", "kind", "hedge")
    n_duplicates_suppressed = _tally("events", "kind", "duplicate")
    n_completed = _tally("requests", "outcome", "completed")
    n_shed = _tally("requests", "outcome", "shed")
    n_failed = _tally("requests", "outcome", "failed")

    # -- identity -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Each kind's records as field dicts, in row order, read
        straight down the columns."""
        doc = {}
        for kind in ("requests", "attempts", "events"):
            store = self._view(kind)._store
            doc[kind] = [dict(zip(store._fields, row)) for row in zip(*store._cols)]
        return doc

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
