"""The CompositionServer: multi-tenant serving over one Engine.

Turns the single-application :class:`~repro.runtime.runtime.Runtime`
into a composition *service*: several tenants' client sessions submit
component invocations concurrently; the server admits (or sheds) each
arrival, coalesces compatible invocations into batches, orders dispatch
either for throughput (greedy deepest-batch) or per-tenant weighted
fairness, and accounts every request's latency decomposition into the
execution trace for the SLO report.

The serving loop is itself a discrete-event simulation in the engine's
virtual time: arrivals and completions are heap events; dispatching a
request submits its task, and because the engine computes task timelines
eagerly, the task's completion time is known at dispatch and becomes the
next event.  A bounded number of in-flight tasks (``max_inflight``)
keeps the dispatch queue meaningful — that queue is where admission
depth, batching and fairness act.

Injected hardware faults are honored end to end: a request's outcome
is read from its own task, so a task that exhausts its
:class:`~repro.runtime.engine.RecoveryPolicy` budget (and is left
unplaced) surfaces as a *failed request* in the tenant's SLO report —
the server keeps serving other tenants instead of crashing.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import PeppherError
from repro.hw.faults import FaultModel
from repro.hw.description import Machine
from repro.runtime.engine import RecoveryPolicy
from repro.runtime.perfmodel import PerfModel
from repro.runtime.runtime import Runtime
from repro.runtime.schedulers import FairShareScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.suite import MetricsSuite
    from repro.tuning.store import PerfModelStore
from repro.runtime.stats import RequestRecord
from repro.serve.admission import (
    AdmissionController,
    AdmissionOutcome,
    AdmissionPolicy,
)
from repro.serve.batching import BatchPolicy, Coalescer, submit_batch
from repro.serve.client import Request, TenantSpec, make_client
from repro.serve.fairness import WeightedFairQueue
from repro.serve.metrics import ServingMetrics
from repro.serve.slo import SloReport, slo_report

#: event kinds; completions sort before arrivals at equal times so freed
#: capacity is visible to the arrival's admission decision
_COMPLETION, _ARRIVAL = 0, 1


class CompositionServer:
    """Multi-tenant composition service on one simulated machine.

    Parameters
    ----------
    machine:
        The machine to serve on (see :mod:`repro.hw.presets`).
    tenants:
        One :class:`~repro.serve.client.TenantSpec` per tenant; names
        must be unique.  Weights feed the ``fair`` dispatch path.
    scheduler:
        Placement policy name (resolved via
        :func:`~repro.runtime.schedulers.make_scheduler` together with
        ``scheduler_options``).  ``"fair"`` additionally switches
        dispatch ordering from throughput-greedy batching to per-tenant
        weighted fair queueing, and receives the tenants' weights
        automatically.  A bulk policy (``"lookahead"``) switches
        dispatch to batch-as-window planning: every coalesced
        (cross-tenant) batch is submitted whole, planned as one DAG
        window, and committed in a single flush — see
        ``docs/PLANNER.md``.
    scheduler_options:
        Extra keyword arguments for the named policy.
    admission:
        The :class:`~repro.serve.admission.AdmissionPolicy`; the default
        admits everything (unbounded baseline).
    batching:
        The :class:`~repro.serve.batching.BatchPolicy` (coalescing cap).
    max_inflight:
        Tasks allowed in flight before dispatch pauses; defaults to
        twice the machine's worker count.
    dispatch_overhead_s:
        Host virtual time per *batch* dispatched — the per-request
        overhead batching amortizes.
    check:
        Validate the finished trace against the run invariants at
        shutdown (see :mod:`repro.check`); ``None`` defers to the
        process-wide default.
    metrics:
        Live observability (see :mod:`repro.obs`): ``True`` for a fresh
        default :class:`~repro.obs.MetricsSuite`, a suite to reuse one,
        a dict of suite keyword arguments (e.g. ``{"period_s": 1e-2}``),
        or ``False``/``None`` (default) for no metrics; the runtime
        builds and attaches it.  The suite (``server.metrics``) exposes
        engine metrics plus live per-tenant request counters, latency
        histograms, and SLO quantile gauges whose final values match
        the end-of-run :func:`~repro.serve.slo.slo_report`.
    """

    def __init__(
        self,
        machine: Machine,
        tenants: Sequence[TenantSpec],
        scheduler: str = "fair",
        admission: AdmissionPolicy | None = None,
        batching: BatchPolicy | None = None,
        seed: int = 0,
        noise_sigma: float = 0.0,
        run_kernels: bool = False,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        max_inflight: int | None = None,
        dispatch_overhead_s: float = 5e-6,
        perfmodel: PerfModel | None = None,
        scheduler_options: Mapping[str, object] | None = None,
        store: "PerfModelStore | None" = None,
        check: bool | None = None,
        metrics: "bool | dict | MetricsSuite | None" = None,
        exec_backend: "str | object | None" = None,
    ) -> None:
        if not tenants:
            raise PeppherError("a composition server needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise PeppherError(f"tenant names must be unique, got {names}")
        self.tenants = list(tenants)
        weights = {t.name: t.weight for t in self.tenants}
        opts = dict(scheduler_options or {})
        if scheduler == "fair":
            opts.setdefault("weights", weights)
        self.fair_dispatch = scheduler == "fair"
        self.runtime = Runtime(
            machine,
            scheduler=scheduler,
            scheduler_options=opts,
            seed=seed,
            noise_sigma=noise_sigma,
            run_kernels=run_kernels,
            faults=faults,
            recovery=recovery,
            perfmodel=perfmodel,
            store=store,
            check=check,
            exec_backend=exec_backend,
            metrics=metrics,
        )
        self.engine = self.runtime.engine
        #: task id -> seconds of its staging transfers, from transfer events
        self._task_transfer_s: dict[int, float] = {}
        self.engine.events.subscribe("transfer", self._note_transfer)
        self.admission = AdmissionController(admission)
        self.metrics = self.runtime.metrics
        self.serving_metrics = (
            ServingMetrics(self.metrics, self.admission, lambda: self._inflight, names)
            if self.metrics is not None
            else None
        )
        self.coalescer = Coalescer(batching)
        self.wfq = WeightedFairQueue(weights)
        if max_inflight is None:
            max_inflight = 2 * len(machine.units)
        if max_inflight < 1:
            raise PeppherError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.dispatch_overhead_s = float(dispatch_overhead_s)
        # serving state
        self._clients = {t.name: make_client(self.runtime, t) for t in self.tenants}
        self._events: list[tuple[float, int, int, object]] = []
        self._event_seq = count()
        self._delayed: list[Request] = []
        self._inflight = 0
        #: per shape: (footprint, variant name, size) of the last task,
        #: so queued requests are priced with the live PerfModel
        self._shape_info: dict[tuple, tuple] = {}
        #: observed-mean fallback while the perfmodel is uncalibrated
        self._shape_obs: dict[tuple, tuple[int, float]] = {}

    # -- introspection ------------------------------------------------------

    @property
    def trace(self):
        return self.runtime.trace

    @property
    def now(self) -> float:
        return self.runtime.now

    def queue_depth(self) -> int:
        """Admitted-but-unfinished requests (dispatch queue + in flight)."""
        return self.admission.queue_depth()

    # -- the serving run ----------------------------------------------------

    def run(self) -> SloReport:
        """Serve every tenant's offered load to completion; return SLOs."""
        for spec in self.tenants:
            for req in self._clients[spec.name].arrivals():
                self._push(req.arrival_s, _ARRIVAL, req)
        while self._events:
            t, _, kind, payload = heapq.heappop(self._events)
            if kind == _COMPLETION:
                self._on_completion(t, payload)
            else:
                self._admit(t, payload, self._delayed)
            self._retry_delayed(t)
            self._dispatch(t)
        if self.metrics is not None:
            self.metrics.collect()
        return slo_report(self.trace)

    def shutdown(self) -> float:
        return self.runtime.shutdown()

    def __enter__(self) -> "CompositionServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.shutdown()
        except PeppherError:
            if exc_type is None:
                raise

    # -- event handlers -----------------------------------------------------

    def _push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (time, next(self._event_seq), kind, payload))

    def _admit(self, t: float, req: Request, held: list[Request]) -> None:
        """Admit ``req`` at ``t``, hold it back on ``held`` or shed it."""
        outcome = self.admission.decide(
            req.tenant, t, req.arrival_s, self._predicted_backlog(t)
        )
        if outcome is AdmissionOutcome.ADMIT:
            self.admission.note_admitted(req.tenant)
            self.wfq.activate(req.tenant)
            self.coalescer.push(req)
        elif outcome is AdmissionOutcome.DELAY:
            if not req.delayed:
                req.delayed = True
                self.admission.note_delayed()
            held.append(req)
        else:
            self.admission.note_shed()
            self.trace.record_request(
                RequestRecord.make(
                    tenant=req.tenant,
                    req_id=req.req_id,
                    codelet=req.codelet_name,
                    arrival_time=req.arrival_s,
                    shed=True,
                    delayed=req.delayed,
                )
            )

    def _on_completion(self, t: float, payload) -> None:
        req, rec = payload
        self._inflight -= 1
        self.admission.note_finished(req.tenant)
        if self.coalescer.pending_for(req.tenant) == 0:
            self.wfq.deactivate(req.tenant)
        nxt = self._clients[req.tenant].on_complete(req, t)
        if nxt is not None:
            self._push(nxt.arrival_s, _ARRIVAL, nxt)

    def _retry_delayed(self, t: float) -> None:
        if not self._delayed:
            return
        still: list[Request] = []
        for req in sorted(self._delayed, key=lambda r: r.arrival_s):
            self._admit(t, req, still)
        self._delayed = still

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, t: float) -> None:
        while self._inflight < self.max_inflight and not self.coalescer.empty:
            if self.fair_dispatch:
                tenant = self.wfq.pick(self.coalescer.tenants_waiting())
                batch = self.coalescer.take_for(tenant) if tenant else []
            else:
                batch = self.coalescer.take_greedy()
            if not batch:
                break
            for req, task, dispatch_time in submit_batch(
                self.runtime, batch, t, self.dispatch_overhead_s
            ):
                self._finalize_one(req, task, dispatch_time, len(batch))

    def _note_transfer(self, ev) -> None:
        task = ev.task
        if task is not None:
            rec = ev.record
            tid = task.task_id
            self._task_transfer_s[tid] = self._task_transfer_s.get(tid, 0.0) + (
                rec.end_time - rec.start_time
            )

    def _finalize_one(self, req: Request, task, dispatch_time: float,
                      batch_size: int) -> None:
        """Settle a dispatched request from its own task: completed when
        the task was placed, failed when fault recovery left it unplaced
        (a per-tenant SLO miss, not a crash)."""
        transfer_s = self._task_transfer_s.pop(task.task_id, 0)
        ran = {}
        if task.chosen_variant is not None:
            service = task.end_time - task.start_time
            self.wfq.charge(req.tenant, service)
            sched = self.engine.scheduler
            if isinstance(sched, FairShareScheduler):
                sched.note_service(req.tenant, service)
            size = float(sum(h.nbytes for h in task.handles))
            self._shape_info[req.shape_key] = (
                task.footprint(),
                task.chosen_variant.name,
                size,
            )
            n, mean = self._shape_obs.get(req.shape_key, (0, 0.0))
            self._shape_obs[req.shape_key] = (n + 1, mean + (service - mean) / (n + 1))
            ran = dict(
                start_time=task.start_time,
                end_time=task.end_time,
                transfer_s=transfer_s,
            )
        rec = RequestRecord.make(
            tenant=req.tenant,
            req_id=req.req_id,
            codelet=req.codelet_name,
            arrival_time=req.arrival_s,
            failed=not ran,
            delayed=req.delayed,
            dispatch_time=dispatch_time,
            batch_size=batch_size,
            task_id=task.task_id,
            **ran,
        )
        self.trace.record_request(rec)
        self._inflight += 1
        end = task.end_time if ran else self.engine.clock.now
        self._push(end, _COMPLETION, (req, rec))

    # -- backlog prediction -------------------------------------------------

    def _estimate_service(self, req: Request) -> float:
        """Predicted execution seconds for one queued request."""
        info = self._shape_info.get(req.shape_key)
        if info is not None:
            footprint, variant, size = info
            est = self.engine.perf.predict(footprint, variant, size)
            if est is not None:
                return est
        n, mean = self._shape_obs.get(req.shape_key, (0, 0.0))
        return mean if n else 0.0

    def _predicted_backlog(self, t: float) -> float:
        """Seconds of work ahead of a new arrival: committed engine
        backlog plus the perfmodel-priced dispatch queue, normalised by
        the usable worker count."""
        committed = self.engine.backlog_seconds(t)
        queued = sum(
            self._estimate_service(r) for r in self.coalescer.iter_requests()
        )
        workers = len(self.engine.usable_units)
        return committed + (queued / workers if workers else queued)
