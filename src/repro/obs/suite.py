"""The one-stop observability bundle attached to an engine.

:class:`MetricsSuite` wires the three obs components — metrics registry,
span tracer, periodic samplers — to an engine's typed event stream in
one call, and is what ``Session(metrics=True)`` and
``CompositionServer(metrics=...)`` hand back.  The engine-level metric
catalogue it maintains (see ``docs/OBSERVABILITY.md``):

=================================  ======================  ==============
metric                             labels                  type
=================================  ======================  ==============
repro_tasks_submitted_total        codelet                 counter
repro_tasks_completed_total        codelet, variant, arch  counter
repro_task_duration_seconds        codelet, variant        histogram
repro_task_queue_wait_seconds      codelet                 histogram
repro_schedule_decisions_total     codelet                 counter
repro_schedule_retries_total       codelet                 counter
repro_transfers_total              direction               counter
repro_transfer_bytes_total         direction               counter
repro_transfer_seconds             direction               histogram
repro_evictions_total              node                    counter
repro_faults_total                 kind                    counter
repro_queue_depth (sampler)        —                       gauge
repro_worker_busy (sampler)        worker                  gauge
repro_node_resident_bytes          node                    gauge
repro_backlog_seconds (sampler)    —                       gauge
=================================  ======================  ==============

Counters and histograms fold incrementally out of the engine trace on
every read (``snapshot`` / ``to_prometheus`` / shutdown flush); the
sampler gauges are brought up to the virtual clock at the same points
by :class:`~repro.obs.samplers.EngineSamplers`.  Everything is
virtual-time-deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.hw.description import DIRECTIONS, transfer_direction
from repro.obs.metrics import MetricsRegistry
from repro.obs.samplers import DEFAULT_PERIOD_S, EngineSamplers
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Engine


class _EngineMetrics:
    """Maintains the engine-level metric catalogue from the engine.

    Nothing runs per task: every catalogue signal already exists in the
    engine's :class:`ExecutionTrace` — completion / transfer / eviction
    / fault records are retained in emission order, and submit-time
    facts live in the trace's native per-codelet counters
    (``submitted_by_codelet`` & co.).  :meth:`collect` folds both
    incrementally (remembering how far it has read), and runs on every
    read path (``MetricsSuite.snapshot`` / ``to_prometheus``), on the
    engine's shutdown ``flush`` event and on ``detach`` — so values are
    exact at every observation point while the metrics-on hot path costs
    the engine nothing beyond its always-on bookkeeping.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._submitted = registry.counter(
            "repro_tasks_submitted_total",
            help="Tasks accepted by Engine.submit",
            labelnames=("codelet",),
        )
        self._completed = registry.counter(
            "repro_tasks_completed_total",
            help="Tasks whose completion event was processed",
            labelnames=("codelet", "variant", "arch"),
        )
        self._duration = registry.histogram(
            "repro_task_duration_seconds",
            help="Modeled kernel execution time",
            unit="seconds",
            labelnames=("codelet", "variant"),
        )
        self._queue_wait = registry.histogram(
            "repro_task_queue_wait_seconds",
            help="Submission to execution start (deps + scheduling + staging)",
            unit="seconds",
            labelnames=("codelet",),
        )
        self._decisions = registry.counter(
            "repro_schedule_decisions_total",
            help="Scheduler.choose calls (one per placement attempt)",
            labelnames=("codelet",),
        )
        self._retries = registry.counter(
            "repro_schedule_retries_total",
            help="Placement attempts after a fault (attempt > 0)",
            labelnames=("codelet",),
        )
        self._transfers = registry.counter(
            "repro_transfers_total",
            help="Committed copies between memory nodes",
            labelnames=("direction",),
        )
        self._transfer_bytes = registry.counter(
            "repro_transfer_bytes_total",
            help="Bytes moved between memory nodes",
            unit="bytes",
            labelnames=("direction",),
        )
        self._transfer_s = registry.histogram(
            "repro_transfer_seconds",
            help="Modeled duration of one committed copy",
            unit="seconds",
            labelnames=("direction",),
        )
        self._evictions = registry.counter(
            "repro_evictions_total",
            help="Device-memory copies dropped to make room",
            labelnames=("node",),
        )
        self._faults = registry.counter(
            "repro_faults_total",
            help="Injected hardware faults by kind",
            labelnames=("kind",),
        )
        # bound-child caches: label handling is paid once per distinct
        # label set, not once per folded event
        self._sub_by_codelet: dict = {}
        self._sched_by_codelet: dict = {}
        self._retry_by_codelet: dict = {}
        self._done_by_cva: dict = {}
        self._xfer_by_dir: dict = {}
        self._evict_by_node: dict = {}
        self._fault_by_kind: dict = {}
        # read positions into the engine trace: list indexes for the
        # record lists, last-seen count snapshots for the native
        # per-codelet counters
        self._engine: "Engine | None" = None
        self._i_tasks = 0
        self._i_transfers = 0
        self._i_evictions = 0
        self._i_faults = 0
        self._seen_sub: dict = {}
        self._seen_dec: dict = {}
        self._seen_retry: dict = {}

    def subscribe(self, engine: "Engine") -> Callable[[], None]:
        """Wire this catalogue to ``engine``.

        Counting starts at the current trace position (attach-onward
        semantics).  Returns a detach callable, which collects first so
        nothing observed is lost.
        """
        self._engine = engine
        trace = engine.trace
        self._i_tasks = len(trace.tasks)
        self._i_transfers = len(trace.transfers)
        self._i_evictions = len(trace.evictions)
        self._i_faults = len(trace.faults)
        self._seen_sub = dict(trace.submitted_by_codelet)
        self._seen_dec = dict(trace.decisions_by_codelet)
        self._seen_retry = dict(trace.retries_by_codelet)

        unsubscribe = engine.events.subscribe("flush", self.on_flush)

        def detach() -> None:
            self.collect()
            self._engine = None
            unsubscribe()

        return detach

    def _fold_since(self, records: list, start: int, fold) -> int:
        """Fold ``records[start:]`` and return the new read position.

        A length below ``start`` means ``trace.clear()`` ran while
        attached; counting restarts from the beginning of the new list.
        """
        n = len(records)
        if n < start:
            start = 0
        for rec in records[start:n]:
            fold(rec)
        return n

    def _fold_counts(self, current: dict, seen: dict, children: dict, metric) -> None:
        """Add the growth of a per-codelet trace counter to ``metric``.

        A count below the snapshot means ``trace.clear()`` ran while
        attached; counting restarts from the new value.
        """
        for name, n in current.items():
            delta = n - seen.get(name, 0)
            if delta < 0:
                delta = n
            if delta:
                child = children.get(name)
                if child is None:
                    child = children[name] = metric.labels(codelet=name)
                child.inc(delta)
                seen[name] = n

    def collect(self) -> None:
        """Fold the engine trace's growth into the registry (idempotent)."""
        engine = self._engine
        if engine is None:
            return
        trace = engine.trace
        self._fold_counts(
            trace.submitted_by_codelet,
            self._seen_sub,
            self._sub_by_codelet,
            self._submitted,
        )
        self._fold_counts(
            trace.decisions_by_codelet,
            self._seen_dec,
            self._sched_by_codelet,
            self._decisions,
        )
        self._fold_counts(
            trace.retries_by_codelet,
            self._seen_retry,
            self._retry_by_codelet,
            self._retries,
        )
        self._i_tasks = self._fold_since(
            trace.tasks, self._i_tasks, self._fold_complete
        )
        self._i_transfers = self._fold_since(
            trace.transfers, self._i_transfers, self._fold_transfer
        )
        self._i_evictions = self._fold_since(
            trace.evictions, self._i_evictions, self._fold_evict
        )
        self._i_faults = self._fold_since(
            trace.faults, self._i_faults, self._fold_fault
        )

    def on_flush(self, event) -> None:
        self.collect()

    # -- fold one record into the registry ------------------------------------

    def _fold_complete(self, rec) -> None:
        cva = (rec.codelet, rec.variant, rec.arch)
        bound = self._done_by_cva.get(cva)
        if bound is None:
            bound = self._done_by_cva[cva] = (
                self._completed.labels(
                    codelet=rec.codelet, variant=rec.variant, arch=rec.arch
                ),
                self._duration.labels(
                    codelet=rec.codelet, variant=rec.variant
                ),
                self._queue_wait.labels(codelet=rec.codelet),
            )
        completed, duration, queue_wait = bound
        completed.inc()
        duration.observe(rec.duration)
        queue_wait.observe(rec.start_time - rec.submit_time)

    def _fold_transfer(self, rec) -> None:
        direction = DIRECTIONS[transfer_direction(rec.src_node, rec.dst_node)]
        bound = self._xfer_by_dir.get(direction)
        if bound is None:
            bound = self._xfer_by_dir[direction] = (
                self._transfers.labels(direction=direction),
                self._transfer_bytes.labels(direction=direction),
                self._transfer_s.labels(direction=direction),
            )
        transfers, transfer_bytes, transfer_s = bound
        transfers.inc()
        transfer_bytes.inc(rec.nbytes)
        transfer_s.observe(rec.end_time - rec.start_time)

    def _fold_evict(self, rec) -> None:
        node = rec.node
        child = self._evict_by_node.get(node)
        if child is None:
            child = self._evict_by_node[node] = self._evictions.labels(node=node)
        child.inc()

    def _fold_fault(self, rec) -> None:
        kind = rec.kind
        child = self._fault_by_kind.get(kind)
        if child is None:
            child = self._fault_by_kind[kind] = self._faults.labels(kind=kind)
        child.inc()


class MetricsSuite:
    """Registry + samplers (+ optional span tracer), attached to one engine.

    Build with :meth:`attach` (or let ``Session(metrics=True)`` /
    ``CompositionServer(metrics=...)`` do it); afterwards
    ``suite.snapshot()`` and ``suite.to_prometheus()`` expose the live
    state at any point of the run, and ``suite.spans`` / ``suite
    .samplers`` hold the trace/sample views.

    The default configuration (metrics + samplers) is held to the 5%
    engine-throughput overhead budget enforced by
    ``python -m repro.experiments.overhead`` — comfortably, because it
    subscribes to no per-task events at all: every catalogue signal is
    folded incrementally out of state the engine retains anyway (trace
    records and its native per-codelet counters) on read (see
    :meth:`collect`), so every exposition is exact while the hot path
    is untouched.  Span tracing is the deeper-inspection tier — it
    builds a :class:`Span` tree per task synchronously from the typed
    event stream and costs roughly 10%, so it is opt-in:
    ``metrics={"trace_spans": True}``.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        period_s: float = DEFAULT_PERIOD_S,
        trace_spans: bool = False,
        max_finished_spans: int | None = 10_000,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.period_s = float(period_s)
        self.spans = SpanTracer(max_finished=max_finished_spans) if trace_spans else None
        self.samplers: EngineSamplers | None = None
        self.engine: "Engine | None" = None
        self._engine_metrics = _EngineMetrics(self.registry)
        self._detachers: list[Callable[[], None]] = []

    @classmethod
    def create(
        cls, spec: "bool | MetricsSuite | dict | None"
    ) -> "MetricsSuite | None":
        """Normalize the ``metrics=`` argument of Session/CompositionServer.

        ``True`` → a fresh default suite; a :class:`MetricsSuite` → used
        as-is; a dict → keyword arguments for the constructor (e.g.
        ``{"period_s": 1e-2}``); ``False``/``None`` → no suite.
        """
        if spec is None or spec is False:
            return None
        if spec is True:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls(**spec)
        raise TypeError(
            f"metrics= expects bool, dict or MetricsSuite, got {type(spec).__name__}"
        )

    # -- lifecycle -----------------------------------------------------------

    def attach(self, engine: "Engine") -> "MetricsSuite":
        """Subscribe every component to ``engine``'s event stream.

        Re-attaching to a new engine (``Session.restart``) first detaches
        from the old one; counters and histograms keep accumulating
        across engines, gauges and samples reflect the current engine.
        """
        self.detach()
        self.engine = engine
        self._detachers.append(self._engine_metrics.subscribe(engine))
        if self.spans is not None:
            self._detachers.append(engine.events.attach(self.spans))
        self.samplers = EngineSamplers(
            engine, period_s=self.period_s, registry=self.registry
        )
        self._detachers.append(engine.events.attach(self.samplers))
        return self

    def detach(self) -> None:
        for undo in self._detachers:
            undo()
        self._detachers.clear()
        self.engine = None

    # -- exposition ----------------------------------------------------------

    def collect(self) -> None:
        """Fold queued engine events and new trace records into the registry.

        Called automatically by :meth:`snapshot` / :meth:`to_prometheus`,
        at engine shutdown (the ``flush`` event) and on :meth:`detach`;
        call it yourself only before reading :attr:`registry` metrics
        directly mid-run.  Also brings the samplers up to the engine
        clock, so sampler gauges are current at every exposition.
        """
        self._engine_metrics.collect()
        if self.samplers is not None and self.engine is not None:
            self.samplers.catch_up()

    def snapshot(self) -> dict:
        """JSON-able snapshot of every registered metric (live)."""
        self.collect()
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        self.collect()
        return self.registry.to_prometheus()

    def save_chrome_trace(self, path) -> None:
        """Write the engine's Chrome trace with the span overlay merged in.

        Workers appear under ``pid=0`` (the existing exporter), spans
        under ``pid=2``.
        """
        import json
        from pathlib import Path

        from repro.runtime.trace_export import to_chrome_trace

        if self.engine is None:
            raise RuntimeError("suite is not attached to an engine")
        doc = to_chrome_trace(self.engine.trace, self.engine.machine)
        if self.spans is not None:
            doc["traceEvents"].extend(self.spans.to_chrome_events())
        Path(path).write_text(json.dumps(doc))
