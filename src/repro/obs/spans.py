"""Virtual-time span tracing of component invocations.

Each task submitted to the engine becomes one ``invoke`` span covering
submit → completion, with nested child spans reconstructed from the
typed event stream:

- ``schedule-wait`` — submission until the placement was committed
  (dependency wait + scheduler queueing + staging);
- ``transfer`` — one child per data copy committed while staging this
  task's operands (labelled with handle name, src/dst node, bytes);
- ``kernel`` — the modeled execution window on the chosen workers.

All times are *virtual* seconds from the discrete-event clock, so span
trees are deterministic for a fixed seed.  Spans are queryable while the
run is live (:meth:`SpanTracer.active`, :meth:`SpanTracer.for_task`) and
exportable as Chrome-trace events that overlay the existing
:mod:`repro.runtime.trace_export` timeline (same ``pid``/``tid``
conventions, so ``chrome://tracing`` shows both in one view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.events import (
        CompleteEvent,
        StartEvent,
        SubmitEvent,
        TransferEvent,
    )


@dataclass
class Span:
    """One timed operation in an invocation tree.

    ``end`` is ``None`` while the span is still open (queried live).
    ``kind`` is one of ``invoke`` / ``schedule-wait`` / ``transfer`` /
    ``kernel``; ``labels`` carries kind-specific detail (codelet,
    variant, worker ids, handle names, byte counts).
    """

    kind: str
    name: str
    start: float
    end: float | None = None
    task_id: int | None = None
    labels: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    @property
    def open(self) -> bool:
        return self.end is None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "task_id": self.task_id,
            "labels": dict(self.labels),
            "children": [c.to_jsonable() for c in self.children],
        }


class SpanTracer:
    """Build invocation span trees from the engine event stream.

    Attach to an engine with ``engine.events.attach(tracer)`` (done for
    you by :class:`repro.obs.MetricsSuite`).  Completed invocation trees
    accumulate in :attr:`finished`; open ones are visible via
    :meth:`active`.
    """

    def __init__(self, max_finished: int | None = None) -> None:
        #: completed invocation roots, in completion order
        self.finished: list[Span] = []
        #: keep at most this many finished roots (None = unbounded)
        self.max_finished = max_finished
        self._open: dict[int, Span] = {}
        self._n_finished = 0

    # -- engine event handlers (bound by EngineEvents.attach) ---------------

    def on_submit(self, event: "SubmitEvent") -> None:
        task = event.task
        root = Span(
            kind="invoke",
            name=task.codelet.name,
            start=event.time,
            task_id=task.task_id,
            labels={"task": task.name, "codelet": task.codelet.name},
        )
        root.children.append(
            Span(
                kind="schedule-wait",
                name=f"{task.codelet.name}:wait",
                start=event.time,
                task_id=task.task_id,
            )
        )
        self._open[task.task_id] = root

    def on_transfer(self, event: "TransferEvent") -> None:
        if event.task is None:
            return  # host-initiated copy: not part of an invocation
        root = self._open.get(event.task.task_id)
        if root is None:
            return
        rec = event.record
        root.children.append(
            Span(
                kind="transfer",
                name=f"copy:{rec.handle_name}",
                start=rec.start_time,
                end=rec.end_time,
                task_id=event.task.task_id,
                labels={
                    "handle": rec.handle_name,
                    "src_node": rec.src_node,
                    "dst_node": rec.dst_node,
                    "nbytes": rec.nbytes,
                },
            )
        )

    def on_start(self, event: "StartEvent") -> None:
        task = event.task
        root = self._open.get(task.task_id)
        if root is None:
            return
        wait = root.children[0]
        if wait.kind == "schedule-wait" and wait.open:
            wait.end = event.time
        variant = task.chosen_variant
        root.children.append(
            Span(
                kind="kernel",
                name=variant.name if variant else task.codelet.name,
                start=task.start_time,
                end=task.end_time,
                task_id=task.task_id,
                labels={
                    "variant": variant.name if variant else "",
                    "arch": variant.arch.value if variant else "",
                    "workers": [u.unit_id for u in task.workers],
                },
            )
        )
        if variant is not None:
            root.labels.setdefault("variant", variant.name)

    def on_complete(self, event: "CompleteEvent") -> None:
        root = self._open.pop(event.task.task_id, None)
        if root is None:
            return
        root.end = event.time
        for child in root.children:
            if child.open:  # fault-retried wait that never started
                child.end = event.time
        self.finished.append(root)
        self._n_finished += 1
        if (
            self.max_finished is not None
            and len(self.finished) > self.max_finished
        ):
            del self.finished[: len(self.finished) - self.max_finished]

    def on_flush(self, event) -> None:
        # close anything still open (aborted tasks never complete)
        for task_id in list(self._open):
            root = self._open.pop(task_id)
            root.end = event.time
            root.labels["unfinished"] = True
            for child in root.children:
                if child.open:
                    child.end = event.time
            self.finished.append(root)
            self._n_finished += 1

    # -- live queries --------------------------------------------------------

    def active(self) -> list[Span]:
        """Invocation roots submitted but not yet completed."""
        return list(self._open.values())

    def for_task(self, task_id: int) -> Span | None:
        """The invocation root for one task, open or finished."""
        span = self._open.get(task_id)
        if span is not None:
            return span
        for root in reversed(self.finished):
            if root.task_id == task_id:
                return root
        return None

    @property
    def n_finished(self) -> int:
        """Invocation roots completed over the tracer's lifetime
        (unaffected by ``max_finished`` trimming)."""
        return self._n_finished

    # -- export --------------------------------------------------------------

    def to_chrome_events(self, pid: int = 2) -> list[dict]:
        """Chrome-trace complete events (``ph: "X"``), one per span.

        Uses ``pid=2`` so the span overlay groups separately from the
        worker timeline that :func:`repro.runtime.trace_export
        .to_chrome_trace` emits under ``pid=0``; concatenate the two
        ``traceEvents`` lists to view both.
        """
        events: list[dict] = []
        for root in self.finished:
            tid = root.task_id if root.task_id is not None else 0
            for span in root.walk():
                end = span.end if span.end is not None else span.start
                events.append(
                    {
                        "name": f"{span.kind}:{span.name}",
                        "cat": span.kind,
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "ts": span.start * 1e6,
                        "dur": (end - span.start) * 1e6,
                        "args": dict(span.labels),
                    }
                )
        return events

    def to_jsonable(self) -> list[dict]:
        return [root.to_jsonable() for root in self.finished]
