"""The cluster facade: consistent-hash routing, failover, hedging,
brown-out — a simulated multi-node deployment of the composition server.

:class:`Cluster` owns O(10) :class:`~repro.cluster.node.ClusterNode`\\ s
(each a full single-machine runtime) and drives them from one global
discrete-event loop.  The loop's heap carries six event kinds; at equal
times completions resolve before control/heartbeat processing, which
runs before retries, hedges and new arrivals — so capacity freed at
time *t* is visible to routing decisions at *t*, and a crash taking
effect at *t* is seen before anything is dispatched at *t*.

Request lifecycle: arrival → (brown-out gate) → consistent-hash routing
to the first believed-alive replica → per-node admission → the node's
coalescing batch queue → engine execution → completion delivered back
to the router.  Failures re-enter the loop through the phi-accrual
failure detector: when a node is declared dead, its queued requests are
re-routed immediately and its outstanding attempts are retried on the
next replica after a jittered backoff (reusing
:class:`~repro.runtime.engine.RecoveryPolicy` — the same policy shape
that governs device-level retries inside each node).  Every request is
identified by its idempotency key ``(tenant, req_id)``; the router
applies **exactly one** completion per key and suppresses the rest
(hedge losers, responses surfacing after a partition heals), so a
failed-over invocation is never double-applied.

All randomness (arrival schedules, retry jitter) is drawn from hashed,
order-independent streams — two same-seed runs produce byte-identical
:class:`~repro.cluster.records.ClusterTrace` digests even under chaos.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.detector import NodeState, PhiAccrualDetector
from repro.cluster.faults import NodeFaultModel
from repro.cluster.node import ClusterNode
from repro.cluster.records import (
    AttemptRecord,
    ClusterEventRecord,
    ClusterRequestRecord,
    ClusterTrace,
)
from repro.cluster.ring import HashRing
from repro.errors import PeppherError
from repro.hw import presets
from repro.hw.faults import FaultModel
from repro.runtime.engine import RecoveryPolicy
from repro.serve.admission import AdmissionOutcome, AdmissionPolicy
from repro.serve.batching import BatchPolicy, Coalescer
from repro.serve.client import ArrivalSchedule, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import ClusterMetrics

# event kinds, in processing order at equal times (completions free
# capacity first; control/detection next so nothing routes to a node
# that died "now"; retries and hedges before fresh arrivals)
_COMPLETION, _CONTROL, _HEARTBEAT, _RETRY, _HEDGE, _ARRIVAL = range(6)

#: how many of a tenant's latest clean responses its hedge deadline is
#: taken over: few enough that a cold start's slow first responses
#: leave the window long before the run ends
HEDGE_WINDOW = 64

#: an attempt's identity in the outstanding maps
_AttemptKey = tuple[str, int, int]


def _attempt_key(a: AttemptRecord) -> _AttemptKey:
    return (a.tenant, a.req_id, a.attempt)


@dataclass(frozen=True)
class ClusterTenant(TenantSpec):
    """A tenant of the cluster: a :class:`TenantSpec` plus the two
    knobs the robustness machinery keys on."""

    #: brown-out shedding order: under cluster-wide pressure the lowest
    #: priority class present is shed first (0 = best effort)
    priority: int = 1
    #: latency objective used by SLO-under-failure reporting
    slo_ms: float = float("inf")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.priority < 0:
            raise PeppherError(
                f"tenant {self.name!r}: priority must be >= 0"
            )
        if self.slo_ms <= 0:
            raise PeppherError(f"tenant {self.name!r}: slo_ms must be > 0")


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging: race the next node in preference order when
    a request is late.

    Each dispatched copy arms a timer; if no completion arrived when it
    fires (the copy executing or still waiting in a node's batch queue),
    the request is hedged.  The deadline is ``after_s`` until the
    tenant has a clean response (one served by its only copy: no hedge,
    one dispatch), then twice the slowest of its last
    :data:`HEDGE_WINDOW` clean responses, never later than ``after_s``
    (:meth:`Cluster.hedge_deadline`).  A hedge re-arms the timer while
    the request has hedges left, so an overdue hedge races the node
    after it."""

    #: the deadline's ceiling, and the deadline before a clean response
    after_s: float
    #: hedges allowed per request
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if self.after_s <= 0:
            raise ValueError(f"after_s must be > 0, got {self.after_s}")
        if self.max_hedges < 1:
            raise ValueError(
                f"max_hedges must be >= 1, got {self.max_hedges}"
            )


@dataclass(frozen=True)
class BrownoutPolicy:
    """Cluster-wide graceful degradation under lost capacity.

    Pressure is outstanding work (dispatch slots occupied plus queued
    requests) over the believed-alive dispatch capacity.  Crossing
    ``high_water`` sheds the lowest-priority tenant class at admission
    until pressure falls back under ``low_water`` (hysteresis, so the
    gate does not flap)."""

    high_water: float = 2.0
    low_water: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.low_water <= self.high_water:
            raise ValueError(
                f"need 0 < low_water <= high_water, got "
                f"({self.low_water}, {self.high_water})"
            )


class _ReqState:
    """Router-side mutable state of one request (one idempotency key).

    Kept in ``Cluster._reqs`` only while the request is in flight (see
    :meth:`Cluster._retire`).
    """

    __slots__ = (
        "spec",
        "tenant_idx",
        "req_id",
        "key",
        "arrival_s",
        "priority",
        "codelet",
        "n_attempts",
        "outstanding",
        "tried",
        "n_dispatches",
        "n_hedges",
        "completed",
        "finalized",
        "first_dispatch",
        "start_time",
        "end_time",
        "served_by",
        "batch_size",
        "failed_over",
        "admitted_node",
        "queued",
    )

    def __init__(
        self, spec: TenantSpec, tenant_idx: int, req_id: int, arrival_s: float
    ) -> None:
        self.spec = spec
        self.tenant_idx = tenant_idx
        self.req_id = req_id
        self.key = (spec.name, req_id)
        self.arrival_s = arrival_s
        self.priority = int(getattr(spec, "priority", 1))
        self.codelet = spec.workload
        #: attempts made so far (the next one's number)
        self.n_attempts = 0
        #: write-through rows of the attempts still unresolved, in
        #: dispatch order
        self.outstanding: dict[_AttemptKey, AttemptRecord] = {}
        self.tried: set[int] = set()
        self.n_dispatches = 0
        self.n_hedges = 0
        self.completed = False
        self.finalized = False
        self.first_dispatch = float("nan")
        self.start_time = float("nan")
        self.end_time = float("nan")
        self.served_by: int | None = None
        self.batch_size = 1
        self.failed_over = False
        self.admitted_node: int | None = None
        #: copies of this request waiting in node coalescers
        self.queued = 0

    @property
    def live(self) -> bool:
        """Has the request a copy that may still complete: an attempt
        outstanding, or a copy queued in a node's coalescer?"""
        return bool(self.outstanding) or self.queued > 0


class Cluster:
    """Simulated multi-node composition service with failure handling.

    Parameters (the robustness knobs; the rest mirror
    :class:`~repro.serve.server.CompositionServer`):

    - ``node_faults`` — scripted node-level chaos
      (:class:`~repro.cluster.faults.NodeFaultModel`).
    - ``device_faults`` — per-node device-level
      :class:`~repro.hw.faults.FaultModel`; a single model is re-seeded
      per node so nodes fault independently.
    - ``failover`` — cluster-level retry policy: total dispatches per
      request are capped at ``1 + failover.max_retries``, retries are
      delayed by its (jittered) backoff.
    - ``replication`` — size of each tenant's replica set on the hash
      ring (primary + failover targets; overflow spills to the rest of
      the preference order).
    - ``hedge`` / ``brownout`` — optional tail-latency hedging and
      graceful brown-out policies.
    """

    def __init__(
        self,
        n_nodes: int,
        tenants: Sequence[TenantSpec],
        *,
        machine="c2050",
        replication: int = 2,
        scheduler: str = "dmda",
        seed: int = 0,
        node_faults: NodeFaultModel | None = None,
        device_faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        failover: RecoveryPolicy | None = None,
        heartbeat_s: float = 1e-3,
        suspect_phi: float = 1.0,
        dead_phi: float = 2.0,
        hedge: HedgePolicy | None = None,
        brownout: BrownoutPolicy | None = None,
        admission: AdmissionPolicy | None = None,
        batching: BatchPolicy | None = None,
        max_inflight: int = 4,
        noise_sigma: float = 0.0,
        run_kernels: bool = False,
        store_root: "str | Path | None" = None,
        vnodes: int = 32,
        dispatch_overhead_s: float = 5e-6,
        metrics: "bool | ClusterMetrics" = False,
        check: bool | None = None,
    ) -> None:
        if n_nodes < 1:
            raise PeppherError(f"n_nodes must be >= 1, got {n_nodes}")
        if not tenants:
            raise PeppherError("cluster needs at least one tenant")
        names = [s.name for s in tenants]
        if len(set(names)) != len(names):
            raise PeppherError(f"duplicate tenant names: {sorted(names)}")
        if replication < 1:
            raise PeppherError(f"replication must be >= 1, got {replication}")
        self.tenants = list(tenants)
        self.replication = min(replication, n_nodes)
        self.seed = int(seed)
        self.heartbeat_s = float(heartbeat_s)
        self.hedge = hedge
        self.brownout = brownout
        self.failover = failover or RecoveryPolicy(
            max_retries=3,
            backoff_base_s=2e-4,
            backoff_factor=2.0,
            backoff_cap_s=5e-3,
            backoff_jitter=0.3,
        )
        self.node_faults = node_faults or NodeFaultModel()
        self.node_faults.validate_for(n_nodes)
        self.check = check

        self.nodes: dict[int, ClusterNode] = {}
        for i in range(n_nodes):
            self.nodes[i] = ClusterNode(
                i,
                self._make_machine(machine, i),
                scheduler=scheduler,
                seed=self.seed + 7919 * i,
                noise_sigma=noise_sigma,
                run_kernels=run_kernels,
                faults=self._node_device_faults(device_faults, i),
                recovery=recovery,
                store=self._node_store(store_root, i),
                admission=admission,
                batching=batching,
                max_inflight=max_inflight,
                dispatch_overhead_s=dispatch_overhead_s,
            )
        self.ring = HashRing(range(n_nodes), vnodes=vnodes)
        self.detector = PhiAccrualDetector(
            self.heartbeat_s, suspect_phi=suspect_phi, dead_phi=dead_phi
        )
        self._belief: dict[int, NodeState] = {
            i: NodeState.ALIVE for i in range(n_nodes)
        }
        self.trace = ClusterTrace()
        self.metrics: "ClusterMetrics | None"
        if metrics is True:
            from repro.cluster.metrics import ClusterMetrics

            metrics = ClusterMetrics()
        self.metrics = metrics.attach(self.trace) if metrics else None

        # brown-out shed class: the lowest priority present, but only
        # when the mix is heterogeneous (shedding everyone is an outage,
        # not a brown-out)
        prios = sorted({int(getattr(s, "priority", 1)) for s in tenants})
        self._shed_priority = prios[0] if len(prios) > 1 else None
        self._brownout_active = False

        self._heap: list[tuple[float, int, int, object]] = []
        self._heap_seq = count()
        self._ev_seq = count()
        self._reqs: dict[tuple[str, int], _ReqState] = {}
        #: per node, its unresolved attempts in dispatch order
        self._node_outstanding: dict[int, dict[_AttemptKey, AttemptRecord]] = {
            i: {} for i in range(n_nodes)
        }
        #: (key, node) pairs whose queued dispatch is a hedge
        self._queued_hedge: set[tuple[tuple[str, int], int]] = set()
        #: per tenant, its last HEDGE_WINDOW clean responses and their
        #: maximum (see HedgePolicy)
        self._clean_s: dict[str, deque[float]] = {}
        self._clean_max: dict[str, float] = {}
        self._schedules: list[ArrivalSchedule] = []
        self._total_offered = sum(s.n_requests for s in tenants)
        self._finalized = 0
        self._planned_drains: list[tuple[float, int]] = []
        self._now = 0.0
        self._ran = False

    # -- construction helpers -----------------------------------------------

    @staticmethod
    def _make_machine(machine, node_id: int):
        if isinstance(machine, str):
            return presets.by_name(machine)
        if callable(machine):
            return machine()
        import copy

        return copy.deepcopy(machine)

    def _node_device_faults(
        self, base: FaultModel | None, node_id: int
    ) -> FaultModel | None:
        """Each node faults independently: same rates, per-node seed."""
        if base is None:
            return None
        return FaultModel(
            kernel_fault_rate=base.kernel_fault_rate,
            transfer_fault_rate=base.transfer_fault_rate,
            device_loss_rate=base.device_loss_rate,
            device_loss_at=base.device_loss_at,
            seed=base.seed + 101 * node_id + 1,
        )

    @staticmethod
    def _node_store(root, node_id: int):
        if root is None:
            return None
        from repro.tuning.store import PerfModelStore

        return PerfModelStore(Path(root) / f"node{node_id}")

    # -- public API ----------------------------------------------------------

    def drain(self, node_id: int, at: float) -> None:
        """Schedule a planned removal: at ``at`` the node stops taking
        new requests, finishes its in-flight work, then leaves the
        ring.  Must be called before :meth:`run`."""
        if self._ran:
            raise PeppherError("drain() must be scheduled before run()")
        if node_id not in self.nodes:
            raise PeppherError(f"unknown node {node_id}")
        if at < 0:
            raise PeppherError(f"drain time must be >= 0, got {at}")
        self._planned_drains.append((float(at), node_id))

    def run(self) -> ClusterTrace:
        """Drive the whole workload; returns the cluster trace."""
        if self._ran:
            raise PeppherError("cluster already ran; build a fresh Cluster")
        self._ran = True
        self._schedule_initial_events()
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            self._now = t
            if kind == _COMPLETION:
                self._on_completion(t, *payload)
            elif kind == _CONTROL:
                self._on_control(t, payload)
            elif kind == _HEARTBEAT:
                self._on_heartbeat(t, payload)
            elif kind == _RETRY:
                self._on_retry(t, payload)
            elif kind == _HEDGE:
                self._on_hedge(t, payload)
            else:
                self._on_arrival(t, *payload)
        self._finalize_leftovers()
        if self._resolve_check():
            from repro.check.cluster import assert_cluster_legal

            assert_cluster_legal(self)
        return self.trace

    def shutdown(self) -> None:
        """Close every node (persists per-node perf-model stores)."""
        for node in self.nodes.values():
            node.close()

    @property
    def alive_nodes(self) -> list[int]:
        return [
            i
            for i, n in self.nodes.items()
            if not n.removed and self._belief[i] is not NodeState.DEAD
        ]

    def hedge_deadline(self, tenant: str) -> float:
        """Seconds after its dispatch that a copy of ``tenant``'s request
        is hedged: twice the slowest of the tenant's last
        :data:`HEDGE_WINDOW` clean responses, never later than
        ``hedge.after_s`` (``inf`` without a hedge policy)."""
        if self.hedge is None:
            return math.inf
        return min(
            self.hedge.after_s, 2 * self._clean_max.get(tenant, math.inf)
        )

    # -- setup ---------------------------------------------------------------

    def _resolve_check(self) -> bool:
        if self.check is not None:
            return self.check
        from repro.check.config import default_check

        return default_check()

    def _schedule_initial_events(self) -> None:
        n = len(self.nodes)
        for idx, nid in enumerate(self.nodes):
            self.detector.register(nid, 0.0)
            # phase-staggered first beats: the fleet never heartbeats in
            # lockstep, so detection sweeps interleave with the workload
            self._push(
                self.heartbeat_s * (idx + 1) / (n + 1), _HEARTBEAT, nid
            )
        self._schedules = [ArrivalSchedule(spec) for spec in self.tenants]
        for idx, schedule in enumerate(self._schedules):
            for i, t in enumerate(schedule.initial()):
                self._push(t, _ARRIVAL, (idx, i))
        for nid, t in sorted(self.node_faults.crash_at.items()):
            self._push(t, _CONTROL, ("crash", nid))
        for nid, (t, factor) in sorted(self.node_faults.slow_at.items()):
            self._push(t, _CONTROL, ("slow", nid, factor))
        for nid, (t0, t1) in sorted(self.node_faults.partition_at.items()):
            self._push(t0, _CONTROL, ("partition", nid, t0, t1))
            if math.isfinite(t1):
                self._push(t1, _CONTROL, ("heal", nid))
        for t, nid in sorted(self._planned_drains):
            self._push(t, _CONTROL, ("drain", nid))

    # -- event plumbing ------------------------------------------------------

    def _push(self, t: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (t, next(self._heap_seq), kind, payload))

    def _event(
        self,
        kind: str,
        t: float,
        node: int | None = None,
        tenant: str = "",
        req_id: int = -1,
        detail: str = "",
    ) -> None:
        self.trace.events.append(
            ClusterEventRecord.make(
                kind=kind,
                time=t,
                node=node,
                tenant=tenant,
                req_id=req_id,
                detail=detail,
                seq=next(self._ev_seq),
            )
        )

    # -- routing -------------------------------------------------------------

    def _routable(self, nid: int, allow_suspect: bool) -> bool:
        node = self.nodes[nid]
        if node.removed or node.draining:
            return False
        belief = self._belief[nid]
        if belief is NodeState.DEAD:
            return False
        if belief is NodeState.SUSPECT and not allow_suspect:
            return False
        return True

    def _route(self, tenant: str, exclude: "set[int] | frozenset" = frozenset()) -> int | None:
        """First usable node in the tenant's preference order: replicas
        first, then spillover; suspected nodes only as a last resort."""
        pref = self.ring.preference(tenant)
        replicas = pref[: self.replication]
        rest = pref[self.replication:]
        for allow_suspect in (False, True):
            for tier in (replicas, rest):
                for nid in tier:
                    if nid in exclude:
                        continue
                    if self._routable(nid, allow_suspect):
                        return nid
        return None

    # -- arrivals ------------------------------------------------------------

    def _on_arrival(self, t: float, tenant_idx: int, req_id: int) -> None:
        spec = self.tenants[tenant_idx]
        st = _ReqState(spec, tenant_idx, req_id, t)
        self._reqs[st.key] = st
        self._update_brownout(t)
        if (
            self._brownout_active
            and self._shed_priority is not None
            and st.priority <= self._shed_priority
        ):
            self._finalize(st, t, "shed", shed_reason="brownout")
            return
        nid = self._route(spec.name, st.tried)
        if nid is None:
            self._finalize(st, t, "shed", shed_reason="no-node")
            return
        self._dispatch(st, nid, t, hedge=False)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(
        self, st: _ReqState, nid: int, t: float, *, hedge: bool
    ) -> None:
        node = self.nodes[nid]
        spec = st.spec
        if hedge:
            # a hedge's request was admitted by its first dispatch
            st.n_hedges += 1
            self._queued_hedge.add((st.key, nid))
        else:
            st.n_dispatches += 1
        st.tried.add(nid)
        if math.isnan(st.first_dispatch):
            st.first_dispatch = t
        req = node.make_request(spec, st.req_id, st.arrival_s)
        st.codelet = req.codelet_name
        if st.admitted_node is None:
            outcome = node.admission.decide(
                spec.name,
                now=t,
                arrival_s=st.arrival_s,
                predicted_backlog_s=node.backlog_seconds(t),
            )
            if outcome is AdmissionOutcome.SHED:
                node.admission.note_shed()
                self._finalize(st, t, "shed", shed_reason="admission")
                return
            # DELAY degrades to ADMIT: the node's batch queue is the
            # cluster's backpressure buffer
            node.admission.note_admitted(spec.name)
            st.admitted_node = nid
        node.coalescer.push(req)
        st.queued += 1
        if self.hedge is not None and st.n_hedges < self.hedge.max_hedges:
            self._push(t + self.hedge_deadline(spec.name), _HEDGE, st.key)
        self._pump(nid, t)

    def _pump(self, nid: int, t: float) -> None:
        node = self.nodes[nid]
        if node.removed:
            return
        while node.inflight < node.max_inflight and not node.coalescer.empty:
            batch = node.coalescer.take_greedy()
            if not batch:
                break
            self._submit_batch(node, batch, t)

    def _new_attempt(
        self,
        st: _ReqState,
        nid: int,
        t: float,
        *,
        hedge: bool,
        batch_size: int = 1,
    ) -> AttemptRecord:
        attempts = self.trace.attempts
        attempts.append(
            AttemptRecord.make(
                tenant=st.spec.name,
                req_id=st.req_id,
                attempt=st.n_attempts,
                node=nid,
                dispatch_time=t,
                hedge=hedge,
                batch_size=batch_size,
            )
        )
        st.n_attempts += 1
        return attempts[-1]

    def _submit_batch(self, node: ClusterNode, batch, t: float) -> None:
        nid = node.node_id
        live = []
        for req in batch:
            st, hedge = self._unqueue(nid, req)
            if st.finalized:
                # settled while it waited: the copy goes no further
                self._retire(st)
            else:
                live.append((req, st, hedge))
        if not live:
            return
        if not node.reachable(t):
            # the dispatch RPC is blackholed (crash or partition): the
            # attempts never touch the engine and sit outstanding until
            # the failure detector resolves them
            for _, st, hedge in live:
                self._hold(
                    node, st, self._new_attempt(
                        st, nid, t, hedge=hedge, batch_size=len(live)
                    )
                )
            return
        results = node.submit_batch([req for req, _, _ in live], t)
        for (_, task), (_, st, hedge) in zip(results, live):
            a = self._new_attempt(
                st, nid, t, hedge=hedge, batch_size=len(live)
            )
            if task.chosen_variant is None:
                # the node answered with a failure (its device-level
                # retries are exhausted); eligible for failover
                a.outcome = "failed"
                a.resolved_time = t
                self._copy_lost(st, nid, t, "node fault budget exhausted")
                continue
            a.start_time = task.start_time
            a.end_time = task.end_time
            a.task_seq = task.submit_seq
            self._hold(node, st, a)
            self._push(task.end_time, _COMPLETION, (nid, a, False))

    def _unqueue(self, nid: int, req) -> tuple[_ReqState, bool]:
        """Take a request's copy off ``nid``'s batch queue: the
        request's state, and whether the copy was a hedge."""
        st = self._reqs[(req.tenant, req.req_id)]
        st.queued -= 1
        mark = (st.key, nid)
        hedge = mark in self._queued_hedge
        self._queued_hedge.discard(mark)
        return st, hedge

    def _empty_queue(self, node: ClusterNode) -> list[_ReqState]:
        """Take every copy off ``node``'s batch queue (the node died or
        drains): their requests' states, in queue order."""
        queued = list(node.coalescer.iter_requests())
        node.coalescer = Coalescer(node.coalescer.policy)
        return [self._unqueue(node.node_id, req)[0] for req in queued]

    def _hold(
        self, node: ClusterNode, st: _ReqState, a: AttemptRecord
    ) -> None:
        """Count ``a`` outstanding: it holds a dispatch slot on ``node``
        until it is resolved."""
        key = _attempt_key(a)
        node.inflight += 1
        st.outstanding[key] = a
        self._node_outstanding[node.node_id][key] = a

    # -- completions ---------------------------------------------------------

    def _on_completion(
        self, t: float, nid: int, attempt: AttemptRecord, redelivery: bool
    ) -> None:
        node = self.nodes[nid]
        if attempt.outcome in ("applied", "duplicate"):
            return
        if not redelivery:
            if node.crashed_at is not None and attempt.end_time > node.crashed_at:
                # the node died mid-execution; nothing ever finished
                return
            if node.partitioned(t):
                t0, t1 = node.partition
                if math.isinf(t1):
                    return  # the response never gets out
                # completed on the node, delivered when the link heals
                self._push(t1, _COMPLETION, (nid, attempt, True))
                return
        elif node.crashed_at is not None and node.crashed_at <= t:
            return  # node died before the healed link could deliver
        self._deliver(node, attempt, t)

    def _release(
        self, node: ClusterNode, attempt: AttemptRecord
    ) -> "_ReqState | None":
        """``attempt`` is resolved: it leaves the outstanding maps and
        frees its dispatch slot.  Returns its request's state, None once
        the state is retired."""
        key = _attempt_key(attempt)
        if self._node_outstanding[node.node_id].pop(key, None) is not None:
            node.inflight = max(node.inflight - 1, 0)
        st = self._reqs.get(key[:2])
        if st is not None:
            st.outstanding.pop(key, None)
        return st

    def _deliver(
        self, node: ClusterNode, attempt: AttemptRecord, t: float
    ) -> None:
        st = self._release(node, attempt)
        attempt.deliver_time = t
        if math.isnan(attempt.resolved_time):
            attempt.resolved_time = t
        # else: the attempt was already resolved ("lost" at death
        # declaration) and this is a late redelivery — the outcome is
        # updated below but the resolution instant stands, so failover
        # retries dispatched after the declaration do not read as
        # overlapping.
        if st is None or st.finalized:
            # exactly-once: the key was already completed (or failed),
            # and its state may be gone — suppress, count, never
            # double-apply
            attempt.outcome = "duplicate"
            self._event(
                "duplicate",
                t,
                node=node.node_id,
                tenant=attempt.tenant,
                req_id=attempt.req_id,
                detail="hedge loser" if attempt.hedge else "late response",
            )
            if st is not None:
                self._retire(st)
        else:
            attempt.outcome = "applied"
            self._complete(st, attempt, t)
        self._maybe_finish_drain(node, t)
        self._pump(node.node_id, t)

    def _complete(
        self, st: _ReqState, attempt: AttemptRecord, t: float
    ) -> None:
        st.completed = True
        st.start_time = attempt.start_time
        st.end_time = t
        st.served_by = attempt.node
        st.batch_size = attempt.batch_size
        if st.n_hedges == 0 and st.n_dispatches == 1:
            # a clean response (Karn's rule: no raced copy feeds it)
            window = self._clean_s.setdefault(
                st.spec.name, deque(maxlen=HEDGE_WINDOW)
            )
            window.append(t - st.first_dispatch)
            self._clean_max[st.spec.name] = max(window)
        self._finalize(st, t, "completed")
        nxt = self._schedules[st.tenant_idx].reissue(t)
        if nxt is not None:
            req_id, at = nxt
            self._push(at, _ARRIVAL, (st.tenant_idx, req_id))

    def _finalize(
        self, st: _ReqState, t: float, outcome: str, shed_reason: str = ""
    ) -> None:
        if st.finalized:
            return
        st.finalized = True
        self._finalized += 1
        if st.admitted_node is not None:
            self.nodes[st.admitted_node].admission.note_finished(st.spec.name)
        self.trace.requests.append(
            ClusterRequestRecord.make(
                tenant=st.spec.name,
                req_id=st.req_id,
                priority=st.priority,
                codelet=st.codelet,
                arrival_time=st.arrival_s,
                outcome=outcome,
                shed_reason=shed_reason,
                dispatch_time=st.first_dispatch,
                start_time=st.start_time,
                end_time=st.end_time if outcome == "completed" else float("nan"),
                served_by=st.served_by,
                n_attempts=st.n_dispatches,
                n_hedges=st.n_hedges,
                failed_over=st.failed_over,
                batch_size=st.batch_size,
            )
        )
        self._retire(st)

    def _retire(self, st: _ReqState) -> None:
        """Drop a key's state once it is finalized with no attempt
        outstanding and no copy queued.  Later events for the key (a
        hedge or retry timer, a redelivery at heal) find no state and
        take the finalized branch."""
        if st.finalized and not st.live:
            self._reqs.pop(st.key, None)

    # -- failure detection and failover --------------------------------------

    def _on_heartbeat(self, t: float, nid: int) -> None:
        node = self.nodes[nid]
        if not node.removed and node.alive(t):
            if not node.partitioned(t):
                self.detector.heartbeat(nid, t)
            if self._finalized < self._total_offered:
                self._push(t + self.heartbeat_s, _HEARTBEAT, nid)
        self._sweep(t)

    def _sweep(self, t: float) -> None:
        for nid, node in self.nodes.items():
            if node.removed:
                continue
            state = self.detector.state(nid, t)
            prev = self._belief[nid]
            if state is prev:
                continue
            self._belief[nid] = state
            phi = self.detector.phi(nid, t)
            if state is NodeState.DEAD:
                self._event("dead", t, node=nid, detail=f"phi={phi:.2f}")
                self._handle_death(nid, t)
            elif state is NodeState.SUSPECT and prev is NodeState.ALIVE:
                self._event("suspect", t, node=nid, detail=f"phi={phi:.2f}")
            elif state is NodeState.ALIVE:
                # heartbeats resumed (a healed partition): rejoin
                self._event("alive", t, node=nid)

    def _handle_death(self, nid: int, t: float) -> None:
        node = self.nodes[nid]
        # queued-but-never-dispatched requests re-route immediately
        for st in self._empty_queue(node):
            self._copy_lost(st, nid, t, "requeued from dead node")
        # outstanding attempts (blackholed or lost mid-execution) fail over
        self._lose_attempts(
            nid,
            list(self._node_outstanding[nid].values()),
            t,
            "outstanding on dead node",
        )
        self._update_brownout(t)

    def _lose_attempts(
        self, nid: int, attempts: list[AttemptRecord], t: float, detail: str
    ) -> None:
        """Resolve ``attempts`` outstanding on ``nid`` as lost, release
        their dispatch slots and fail their requests over."""
        for a in attempts:
            st = self._release(self.nodes[nid], a)
            a.outcome = "lost"
            a.resolved_time = t
            self._copy_lost(st, nid, t, detail)

    def _copy_lost(
        self, st: _ReqState, nid: int, t: float, detail: str
    ) -> None:
        """A copy of ``st`` on ``nid`` is gone: fail the request over,
        unless it is settled or another copy still lives (a hedge races,
        or a copy waits in a batch queue)."""
        if st.finalized or st.live:
            self._retire(st)
        else:
            self._failover(st, nid, t, detail)

    def _failover(
        self, st: _ReqState, nid: int, t: float, detail: str
    ) -> None:
        st.failed_over = True
        self._event(
            "failover",
            t,
            node=nid,
            tenant=st.spec.name,
            req_id=st.req_id,
            detail=detail,
        )
        self._schedule_retry(st, t)

    def _schedule_retry(self, st: _ReqState, t: float) -> None:
        n = st.n_dispatches  # dispatches so far; the retry is n + 1
        if n > self.failover.max_retries:
            self._finalize(st, t, "failed")
            return
        u = None
        if self.failover.backoff_jitter > 0.0:
            u = float(
                np.random.default_rng(
                    (self.seed, 0xFA11, st.tenant_idx, st.req_id, n)
                ).random()
            )
        self._push(t + self.failover.backoff(n, u), _RETRY, st.key)
        if self.metrics:
            # scheduled retries are the one count no trace column holds
            self.metrics.retries.inc(1, tenant=st.spec.name)

    def _on_retry(self, t: float, key: tuple[str, int]) -> None:
        st = self._reqs.get(key)
        if st is None or st.finalized or st.live:
            return
        self._redispatch(st, t)

    def _redispatch(self, st: _ReqState, t: float) -> None:
        """Send ``st`` to the next untried node, or fail it if none is
        left."""
        nid = self._route(st.spec.name, st.tried)
        if nid is None:
            self._finalize(st, t, "failed")
        else:
            self._dispatch(st, nid, t, hedge=False)

    def _on_hedge(self, t: float, key: tuple[str, int]) -> None:
        st = self._reqs.get(key)
        if st is None or st.finalized or not st.live:
            return  # completed, or mid-failover (the retry path owns it)
        if st.n_hedges >= self.hedge.max_hedges:
            return  # an earlier dispatch's timer spent the budget
        nid = self._route(st.spec.name, st.tried)
        if nid is None:
            return
        self._event(
            "hedge", t, node=nid, tenant=st.spec.name, req_id=st.req_id
        )
        self._dispatch(st, nid, t, hedge=True)

    # -- control plane -------------------------------------------------------

    def _on_control(self, t: float, cmd: tuple) -> None:
        kind = cmd[0]
        nid = cmd[1]
        node = self.nodes[nid]
        if kind == "crash":
            node.crashed_at = t
            self._event("crash", t, node=nid)
        elif kind == "slow":
            factor = cmd[2]
            node.apply_slowdown(t, factor)
            self._event("slowdown", t, node=nid, detail=f"x{factor:g}")
        elif kind == "partition":
            node.partition = (cmd[2], cmd[3])
            self._event(
                "partition",
                t,
                node=nid,
                detail=f"until t={cmd[3]:.6f}"
                if math.isfinite(cmd[3])
                else "never heals",
            )
        elif kind == "heal":
            self._event("heal", t, node=nid)
            if node.alive(t):
                # dispatches blackholed by the partition never reached
                # the engine and will never answer; when the link heals
                # before the detector declares the node dead, nothing
                # else would ever resolve them
                lost = [
                    a for a in self._node_outstanding[nid].values() if not a.ran
                ]
                self._lose_attempts(nid, lost, t, "blackholed by partition")
            self._pump(nid, t)
        elif kind == "drain":
            self._start_drain(node, t)

    def _start_drain(self, node: ClusterNode, t: float) -> None:
        if node.removed or node.draining:
            return
        node.draining = True
        self._event("drain_start", t, node=node.node_id)
        for st in self._empty_queue(node):
            if st.finalized or st.live:
                # settled, or another copy still races: no re-dispatch,
                # which would overlap that copy as a second primary
                self._retire(st)
            else:
                self._redispatch(st, t)
        self._maybe_finish_drain(node, t)

    def _maybe_finish_drain(self, node: ClusterNode, t: float) -> None:
        if (
            node.draining
            and not node.removed
            and node.inflight == 0
            and node.coalescer.empty
        ):
            node.removed = True
            self.ring.remove(node.node_id)
            self._event("drain_done", t, node=node.node_id)

    # -- brown-out -----------------------------------------------------------

    def _update_brownout(self, t: float) -> None:
        if self.brownout is None or self._shed_priority is None:
            return
        capacity = 0
        load = 0
        for nid, node in self.nodes.items():
            if node.removed or self._belief[nid] is NodeState.DEAD:
                continue
            capacity += node.max_inflight
            load += node.queue_depth()
        pressure = load / capacity if capacity else float("inf")
        if not self._brownout_active and pressure >= self.brownout.high_water:
            self._brownout_active = True
            self._event("brownout_on", t, detail=f"pressure={pressure:.2f}")
        elif self._brownout_active and pressure <= self.brownout.low_water:
            self._brownout_active = False
            self._event("brownout_off", t, detail=f"pressure={pressure:.2f}")

    # -- teardown ------------------------------------------------------------

    def _finalize_leftovers(self) -> None:
        """Resolve what is still open when the event heap drains: every
        replica dead, a never-healing partition ate the response, or
        the heartbeats stopped with every request settled before a
        silent node was declared dead.  Outstanding attempts are lost,
        queued copies dropped and unsettled requests failed."""
        t = self._now
        for nid, node in self.nodes.items():
            self._empty_queue(node)
            for a in self._node_outstanding[nid].values():
                a.outcome = "lost"
                a.resolved_time = t
            self._node_outstanding[nid].clear()
            node.inflight = 0
        for st in list(self._reqs.values()):
            if not st.finalized:
                self._finalize(st, t, "failed")
        self._reqs.clear()
