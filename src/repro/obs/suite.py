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

Every counter and histogram is a fold over the trace's typed columns,
run on read (``snapshot`` / ``to_prometheus`` / ``collect``, the
engine's shutdown ``flush`` and ``detach``).  A :class:`Fold` names a
record kind, the column behind each label and an optional value
column; the rows the kind gained since the last read are grouped by
label tuple in order of first appearance, and each group increments
its counter (by its row count or value total) or is observed by its
histogram in row order.  The submit, decision and retry counters fold
the growth of the trace's per-codelet counts.  The sampler gauges are
brought up to the virtual clock at the same points by
:class:`~repro.obs.samplers.EngineSamplers`, and gauges of live state
that the trace does not hold (the serving queue depths) are set there
from :attr:`MetricsSuite.gauges`.  Everything is
virtual-time-deterministic for a fixed seed.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.hw.description import DIRECTIONS, transfer_direction
from repro.obs.metrics import MetricsRegistry
from repro.obs.samplers import DEFAULT_PERIOD_S, EngineSamplers
from repro.obs.spans import SpanTracer
from repro.runtime.stats import CodedColumn, ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Engine


class Rows:
    """Rows ``start:stop`` of one record kind of a trace, read by column
    (an engine or a cluster trace: anything with ``_column(kind, field)``)."""

    def __init__(self, trace, kind: str, start: int, stop: int) -> None:
        self.trace, self.kind, self.start, self.stop = trace, kind, start, stop

    def array(self, field: str) -> np.ndarray:
        """A copy of a column's rows."""
        col = self.trace._column(self.kind, field)
        return np.array(col[self.start : self.stop])

    def labels(self, spec) -> tuple:
        """A label column as a code per row and the value of each code.

        ``spec`` is a field name, or a function of the rows deriving both.
        """
        if callable(spec):
            return spec(self)
        col = self.trace._column(self.kind, spec)
        if type(col) is CodedColumn:
            codes = np.array(col.codes[self.start : self.stop], np.intp)
            return codes, col.values
        table: dict = {}
        rows = col[self.start : self.stop]
        codes = np.array([table.setdefault(v, len(table)) for v in rows], np.intp)
        return codes, list(table)


def span(first: str, last: str) -> Callable[[Rows], np.ndarray]:
    """The derived column ``last - first``, a duration."""
    return lambda rows: rows.array(last) - rows.array(first)


def among(field: str, *values) -> Callable[[Rows], np.ndarray]:
    """The rows whose ``field`` holds one of ``values`` (a ``where``)."""

    def where(rows: Rows) -> np.ndarray:
        codes, table = rows.labels(field)
        return np.isin(codes, [c for c, v in enumerate(table) if v in values])

    return where


def _direction(rows: Rows) -> tuple:
    src, dst = rows.array("src_node"), rows.array("dst_node")
    return transfer_direction(src, dst), DIRECTIONS


class Fold(NamedTuple):
    """One metric of a catalogue and the record columns it folds."""

    name: str
    type: str  # counter | histogram | gauge
    help: str
    unit: str
    #: a record kind, or a per-codelet count of the trace
    source: str
    #: label name -> a field name or a function of the rows (see
    #: :meth:`Rows.labels`)
    labels: dict
    #: a function of the rows: the values a counter adds, a histogram
    #: observes or a gauge is set to; None counts rows
    value: Callable[[Rows], np.ndarray] | None = None
    #: a function of the rows selecting those folded; None folds all
    where: Callable[[Rows], np.ndarray] | None = None


def fold_rows(metric, fold: Fold, rows: Rows) -> None:
    """Fold ``rows`` into ``metric``: group them by label tuple, in order
    of first appearance; each group increments its counter by its value
    total, is observed by its histogram in row order, or sets its gauge
    to its last value."""
    keep = slice(None) if fold.where is None else fold.where(rows)
    columns = [
        (codes[keep], table)
        for codes, table in map(rows.labels, fold.labels.values())
    ]
    n = rows.stop - rows.start
    values = (np.ones(n) if fold.value is None else fold.value(rows))[keep]
    key = np.zeros(len(values), np.intp)
    for codes, table in columns:
        key = key * len(table) + codes
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[inverse]
    if metric.kind == "histogram":
        ends = np.cumsum(np.bincount(group))[:-1]
        parts = np.split(values[np.argsort(group, kind="stable")], ends)
    elif metric.kind == "gauge":
        last = len(key) - 1 - np.unique(key[::-1], return_index=True)[1]
        parts = values[last[order]].tolist()
    else:
        parts = np.bincount(group, values).tolist()
    apply = {"counter": "inc", "gauge": "set", "histogram": "observe_all"}
    for row, part in zip(first[order].tolist(), parts):
        child = metric.labels(
            **{
                label: table[codes[row]]
                for label, (codes, table) in zip(fold.labels, columns)
            }
        )
        getattr(child, apply[metric.kind])(part)


def register(registry: MetricsRegistry, fold: Fold):
    """``fold``'s metric in ``registry``, created if it is new."""
    return getattr(registry, fold.type)(
        fold.name, help=fold.help, unit=fold.unit, labelnames=tuple(fold.labels)
    )


def fold_unread(trace, folds, read: dict) -> None:
    """Apply each ``(kind, fold)`` of ``folds`` to the rows its kind of
    ``trace`` gained since ``read`` (kind -> rows already folded), then
    advance ``read``."""
    stops = {kind: len(trace._view(kind)) for kind, _ in folds}
    for kind, fold in folds:
        if stops[kind] > read.get(kind, 0):
            fold(Rows(trace, kind, read.get(kind, 0), stops[kind]))
    read.update(stops)


_CODELET = {"codelet": "codelet"}

#: the engine catalogue
ENGINE_FOLDS = (
    Fold("repro_tasks_submitted_total", "counter",
         "Tasks accepted by Engine.submit", "",
         "submitted_by_codelet", _CODELET),
    Fold("repro_tasks_completed_total", "counter",
         "Tasks whose completion event was processed", "",
         "tasks", {"codelet": "codelet", "variant": "variant", "arch": "arch"}),
    Fold("repro_task_duration_seconds", "histogram",
         "Modeled kernel execution time", "seconds",
         "tasks", {"codelet": "codelet", "variant": "variant"},
         span("start_time", "end_time")),
    Fold("repro_task_queue_wait_seconds", "histogram",
         "Submission to execution start (deps + scheduling + staging)",
         "seconds", "tasks", {"codelet": "codelet"},
         span("submit_time", "start_time")),
    Fold("repro_schedule_decisions_total", "counter",
         "Scheduler.choose calls (one per placement attempt)", "",
         "decisions_by_codelet", _CODELET),
    Fold("repro_schedule_retries_total", "counter",
         "Placement attempts after a fault (attempt > 0)", "",
         "retries_by_codelet", _CODELET),
    Fold("repro_transfers_total", "counter",
         "Committed copies between memory nodes", "",
         "transfers", {"direction": _direction}),
    Fold("repro_transfer_bytes_total", "counter",
         "Bytes moved between memory nodes", "bytes",
         "transfers", {"direction": _direction},
         lambda rows: rows.array("nbytes")),
    Fold("repro_transfer_seconds", "histogram",
         "Modeled duration of one committed copy", "seconds",
         "transfers", {"direction": _direction}, span("start_time", "end_time")),
    Fold("repro_evictions_total", "counter",
         "Device-memory copies dropped to make room", "",
         "evictions", {"node": "node"}),
    Fold("repro_faults_total", "counter",
         "Injected hardware faults by kind", "",
         "faults", {"kind": "kind"}),
)


class MetricsSuite:
    """Registry + samplers (+ optional span tracer), attached to one engine.

    Build with :meth:`attach` (or let ``Runtime(metrics=True)``, and so
    ``Session``/``CompositionServer``, do it); afterwards
    ``suite.snapshot()`` and ``suite.to_prometheus()`` expose the live
    state at any point of the run, and ``suite.spans`` / ``suite
    .samplers`` hold the trace/sample views.

    The default configuration (metrics + samplers) is held to the 5%
    engine-throughput overhead budget enforced by
    ``python -m repro.experiments.overhead`` — comfortably, because it
    subscribes to no per-task events at all: every catalogue signal is
    folded out of state the engine retains anyway (the trace's columns
    and its per-codelet counts) on read (see :meth:`collect`), so every
    exposition is exact while the hot path is untouched.  Span tracing
    is the deeper-inspection tier — it builds a :class:`Span` tree per
    task synchronously from the typed event stream and costs roughly
    10%, so it is opt-in: ``metrics={"trace_spans": True}``.
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
        self._detachers: list[Callable[[], None]] = []
        #: metric name -> (record kind, a function folding the kind's
        #: rows unread at a read).  A later fold of a name replaces the
        #: earlier one, so a suite reused by a second server folds each
        #: request once.
        self.folds: dict[str, tuple[str, Callable[[Rows], None]]] = {}
        #: metric name -> a function setting gauges from live state (not
        #: trace rows) at every read; replaced like :attr:`folds`
        self.gauges: dict[str, Callable[[], None]] = {}
        self._counts: list = []
        self.add_folds(ENGINE_FOLDS)
        # what the last read saw: rows per record kind, the per-codelet
        # counts, and the trace's clear count
        self._read: dict[str, int] = {}
        self._seen: dict[str, dict] = {}
        self._clears = 0

    @classmethod
    def create(
        cls, spec: "bool | MetricsSuite | dict | None"
    ) -> "MetricsSuite | None":
        """Normalize the ``metrics=`` argument of :class:`~repro.runtime.runtime.Runtime`.

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
        trace = engine.trace
        self._clears = trace.n_clears
        self._read = {kind: len(trace._view(kind)) for kind in trace.RECORD_KINDS}
        self._seen = {s: dict(getattr(trace, s)) for s, _ in self._counts}
        self._detachers.append(
            engine.events.subscribe("flush", lambda event: self._fold())
        )
        if self.spans is not None:
            self._detachers.append(engine.events.attach(self.spans))
        self.samplers = EngineSamplers(
            engine, period_s=self.period_s, registry=self.registry
        )
        self._detachers.append(engine.events.attach(self.samplers))
        return self

    def detach(self) -> None:
        """Fold what is unread, then stop observing the engine."""
        self._fold()
        for undo in self._detachers:
            undo()
        self._detachers.clear()
        self.engine = None

    # -- folds ---------------------------------------------------------------

    def add_folds(self, folds) -> None:
        """Register the metrics of ``folds`` and fold them on every read."""
        for f in folds:
            metric = register(self.registry, f)
            if f.source in ExecutionTrace.RECORD_CLASSES:
                self.folds[f.name] = (f.source, partial(fold_rows, metric, f))
            else:
                self._counts.append((f.source, metric))

    def _fold(self) -> None:
        """Fold the trace's growth since the last read into the registry
        and set the live-state gauges."""
        if self.engine is None:
            return
        trace = self.engine.trace
        if trace.n_clears != self._clears:
            # cleared while attached: every row and count is new
            self._clears = trace.n_clears
            self._read, self._seen = {}, {}
        for source, metric in self._counts:
            seen = self._seen.get(source, {})
            for name, n in getattr(trace, source).items():
                if n != seen.get(name, 0):
                    metric.labels(codelet=name).inc(n - seen.get(name, 0))
            self._seen[source] = dict(getattr(trace, source))
        fold_unread(trace, self.folds.values(), self._read)
        for set_gauges in self.gauges.values():
            set_gauges()

    # -- exposition ----------------------------------------------------------

    def collect(self) -> None:
        """Fold queued engine events and new trace records into the registry.

        Called automatically by :meth:`snapshot` / :meth:`to_prometheus`,
        at engine shutdown (the ``flush`` event) and on :meth:`detach`;
        call it yourself only before reading :attr:`registry` metrics
        directly mid-run.  Also brings the samplers up to the engine
        clock, so sampler gauges are current at every exposition.
        """
        self._fold()
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
