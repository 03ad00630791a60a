"""Periodic engine samplers driven by the discrete-event clock.

Real runtimes poll queue depths and utilisation on a wall-clock timer;
here everything runs in virtual time, so the samplers are fully
*lazy*: whenever the suite is read (and at the shutdown ``flush``
event) they record one :class:`SamplePoint` per sampling-period
boundary crossed since the last catch-up.  The task signals of those
points come from one fold over the recorded task columns,
:func:`repro.runtime.trace_export.task_load` (which also renders the
Chrome trace's counter tracks), evaluated at the boundaries, so each
boundary sees the trace's state *at that instant* and the per-task hot
path pays nothing.  The ``flush`` event closes the tail window, so the
last partial period is observed before any shutdown consumer runs.

Sampled signals, each mirrored into gauges of the shared
:class:`~repro.obs.metrics.MetricsRegistry` when one is given:

==============================  =========================================
signal                          gauge (labels)
==============================  =========================================
queue depth                     ``repro_queue_depth``
per-worker busy flag            ``repro_worker_busy{worker=}``
container residency per node    ``repro_node_resident_bytes{node=}``
backlog of submitted work       ``repro_backlog_seconds``
==============================  =========================================

At boundary ``t``: queue depth counts tasks submitted but not yet
finished (``submit <= t < end``); a worker is busy when a task occupies
it (``start <= t < end``); backlog is the latest end among tasks
submitted by ``t``, minus ``t``, floored at 0.  Residency is not in the
task columns: it is the engine's reading at catch-up time, shared by
every boundary of that catch-up.  Tasks held in a bulk policy's
lookahead window are not in the trace until the window flushes, so a
boundary sampled before the flush does not count them.

Guidance on the period: the default (1 ms virtual) resolves individual
kernel executions on the paper's machines; for long closed-loop serving
runs 10-100 ms keeps sample counts small.  A catch-up costs
O((n + s) log n) for ``n`` recorded tasks and ``s`` boundaries crossed,
and nothing when no boundary was crossed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.trace_export import task_load

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.engine import Engine

#: default virtual-time sampling period (seconds)
DEFAULT_PERIOD_S = 1e-3


@dataclass(frozen=True)
class SamplePoint:
    """Load observed at one sampling-period boundary (or the flush tail)."""

    time: float
    queue_depth: int
    #: 1.0 when the worker is occupied at the sample time, else 0.0
    worker_busy: tuple[float, ...]
    #: resident container bytes per device memory node (index 0 = node 1)
    resident_bytes: tuple[int, ...]
    backlog_s: float

    @property
    def busy_fraction(self) -> float:
        """Fraction of workers busy at this instant."""
        if not self.worker_busy:
            return 0.0
        return sum(self.worker_busy) / len(self.worker_busy)

    def to_jsonable(self) -> dict:
        return {
            "time": self.time,
            "queue_depth": self.queue_depth,
            "worker_busy": list(self.worker_busy),
            "resident_bytes": list(self.resident_bytes),
            "backlog_s": self.backlog_s,
        }


class EngineSamplers:
    """Sample engine load state at fixed virtual-time intervals.

    Attach to an engine with ``engine.events.attach(sampler)`` after
    constructing with that engine (done by :class:`repro.obs
    .MetricsSuite`).  Samples accumulate in :attr:`samples`; when a
    registry is supplied the latest sample is also mirrored into gauges.
    """

    def __init__(
        self,
        engine: "Engine",
        period_s: float = DEFAULT_PERIOD_S,
        registry: "MetricsRegistry | None" = None,
        max_samples: int | None = 100_000,
    ) -> None:
        if period_s <= 0:
            raise ValueError(f"sampling period must be positive, got {period_s}")
        self.engine = engine
        self.period_s = float(period_s)
        self.samples: list[SamplePoint] = []
        self.max_samples = max_samples
        self._next_boundary = self.period_s
        if registry is not None:
            self._g_queue = registry.gauge(
                "repro_queue_depth",
                help="Tasks submitted but not yet finished in virtual time",
            )
            self._g_busy = registry.gauge(
                "repro_worker_busy",
                help="1 when the worker is occupied at the sample instant",
                labelnames=("worker",),
            )
            self._g_resident = registry.gauge(
                "repro_node_resident_bytes",
                help="Container bytes resident per device memory node",
                unit="bytes",
                labelnames=("node",),
            )
            self._g_backlog = registry.gauge(
                "repro_backlog_seconds",
                help="Latest end of the submitted tasks, minus the sample time",
                unit="seconds",
            )
        else:
            self._g_queue = None

    # -- catch-up points -----------------------------------------------------

    def catch_up(self) -> None:
        """Record samples for boundaries crossed up to the engine clock
        (``MetricsSuite.collect`` calls this on every exposition)."""
        self._sample(self._boundaries(self.engine.clock.now))

    def on_flush(self, event) -> None:
        """Close the tail window: sample boundaries up to the flush time,
        plus one final off-boundary sample of the drained state."""
        self._sample(self._boundaries(event.time) + [event.time])

    # -- sampling ------------------------------------------------------------

    def _boundaries(self, now: float) -> list[float]:
        """The period boundaries crossed up to ``now``, consumed."""
        times: list[float] = []
        # cap the number of catch-up samples so one huge idle gap cannot
        # produce millions of identical points
        while self._next_boundary <= now:
            remaining = (now - self._next_boundary) / self.period_s
            if self.max_samples is not None and remaining > self.max_samples:
                # skip ahead: the state is constant over the gap anyway
                skip = int(remaining) - self.max_samples
                self._next_boundary += skip * self.period_s
            times.append(self._next_boundary)
            self._next_boundary += self.period_s
        return times

    def _sample(self, times: list[float]) -> None:
        if not times:
            return
        engine = self.engine
        load = task_load(engine.trace, times)
        units = [u.unit_id for u in engine.machine.units]
        idle = [0.0] * len(times)
        busy = zip(
            *(
                (load.busy[w] > 0).astype(float).tolist() if w in load.busy else idle
                for w in units
            )
        )
        resident = tuple(
            engine.resident_bytes(node)
            for node in range(1, engine.machine.n_memory_nodes)
        )
        self.samples.extend(
            SamplePoint(t, depth, flags, resident, backlog)
            for t, depth, flags, backlog in zip(
                times,
                (load.pending + load.running).tolist(),
                busy,
                load.backlog.tolist(),
            )
        )
        if self.max_samples is not None and len(self.samples) > self.max_samples:
            del self.samples[: len(self.samples) - self.max_samples]
        if self._g_queue is not None:
            point = self.samples[-1]
            self._g_queue.set(point.queue_depth)
            for w, b in zip(units, point.worker_busy):
                self._g_busy.set(b, worker=w)
            for node, nbytes in enumerate(resident, start=1):
                self._g_resident.set(nbytes, node=node)
            self._g_backlog.set(point.backlog_s)

    # -- views ---------------------------------------------------------------

    @property
    def latest(self) -> SamplePoint | None:
        return self.samples[-1] if self.samples else None

    def mean_busy_fraction(self) -> float:
        """Average instantaneous busy fraction over all samples."""
        if not self.samples:
            return 0.0
        return sum(s.busy_fraction for s in self.samples) / len(self.samples)

    def peak_queue_depth(self) -> int:
        return max((s.queue_depth for s in self.samples), default=0)

    def to_jsonable(self) -> list[dict]:
        return [s.to_jsonable() for s in self.samples]
