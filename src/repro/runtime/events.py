"""Typed engine event subscription API (`EngineEvents`).

One subscription surface: every layer that needs to observe the engine
— the serving front-end, :mod:`repro.check`'s decision recorder, the
:mod:`repro.obs` metrics/tracing stack — subscribes to the same stream
of typed events:

==========  ==============================================================
kind        emitted when
==========  ==============================================================
submit      a task was accepted by :meth:`Engine.submit`
schedule    the scheduling policy returned a decision for a ready task
            (one event per ``Scheduler.choose`` call, so fault-recovery
            retries each produce their own event)
start       a placement was committed and the task's timeline is known
complete    the task's completion event was processed
transfer    a data copy between memory nodes was committed
evict       a device-resident copy was dropped to make room
fault       an injected hardware fault was recorded
flush       the engine drained at shutdown; subscribers must finalize
            any buffered state *now*, before shutdown-time consumers
            (invariant checking, trace export, model persistence) run
==========  ==============================================================

Payloads are slim ``slots`` dataclasses — treat them as immutable
(they are not frozen only because plain attribute assignment constructs
measurably faster on the per-task hot path).  Emission is zero-cost for
kinds nobody subscribed to: the engine checks the per-kind ``want_<kind>``
plain-bool attribute before even building the payload, so a metrics-off
run constructs no event objects at all.

Delivery is *batched*: emitted events land in a bounded ring buffer and
are dispatched — in emission order, with the subscriber set captured at
emission time — when the buffer fills or the engine reaches a sync
point (end of ``submit``, host accesses, ``wait_for_all``, shutdown).
Events carry virtual timestamps, so deferred delivery is observably
identical for subscribers that do not re-read engine state from inside
a callback; subscribers must not submit tasks or otherwise re-enter the
engine from a callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.schedulers.base import Decision
    from repro.runtime.stats import (
        EvictionRecord,
        FaultRecord,
        TaskRecord,
        TransferRecord,
    )
    from repro.runtime.task import Task


@dataclass(slots=True)
class SubmitEvent:
    """A task was accepted for execution."""

    time: float
    task: "Task"


@dataclass(slots=True)
class ScheduleEvent:
    """The policy chose (variant, workers) for a ready task.

    Emitted once per ``Scheduler.choose`` call — a task that faults and
    is retried produces one event per attempt (``attempt`` counts them,
    0 = first try), which is exactly the stream deterministic replay
    must record.
    """

    time: float
    task: "Task"
    decision: "Decision"
    attempt: int


@dataclass(slots=True)
class StartEvent:
    """A placement was committed; the task timeline is now known.

    ``time`` is the task's (virtual) start time; ``task.end_time`` is
    already valid because the engine computes timelines eagerly.
    """

    time: float
    task: "Task"


@dataclass(slots=True)
class CompleteEvent:
    """A task's completion event was processed."""

    time: float
    task: "Task"
    record: "TaskRecord"


@dataclass(slots=True)
class TransferEvent:
    """A data copy between memory nodes was committed.

    ``task`` is the task whose staging caused the copy, or ``None`` for
    host-initiated transfers (container acquire, unregister, eviction
    flush).
    """

    time: float
    record: "TransferRecord"
    task: "Task | None"


@dataclass(slots=True)
class EvictEvent:
    """A device-resident copy was dropped to make room."""

    time: float
    record: "EvictionRecord"


@dataclass(slots=True)
class FaultEvent:
    """An injected hardware fault was recorded."""

    time: float
    record: "FaultRecord"


@dataclass(slots=True)
class FlushEvent:
    """The engine drained at shutdown; finalize buffered state now."""

    time: float


#: subscription kinds, in rough lifecycle order
EVENT_KINDS = (
    "submit",
    "schedule",
    "start",
    "complete",
    "transfer",
    "evict",
    "fault",
    "flush",
)


#: pending-event ring capacity; a full ring forces an early drain so the
#: buffer stays cache-sized however long the engine runs between syncs
RING_CAPACITY = 256


class EngineEvents:
    """Per-engine registry of typed event subscribers.

    Subscribe either one callback per kind::

        unsubscribe = engine.events.subscribe("complete", on_complete)

    or a whole observer object whose ``on_<kind>`` methods are bound in
    one call::

        detach = engine.events.attach(observer)   # binds on_submit, ...

    Both forms return a zero-argument detach callable.

    The per-kind ``want_<kind>`` plain-bool attributes mirror "anyone
    subscribed to this kind" — the engine's hot path reads them to skip
    payload construction entirely when nobody is listening.
    """

    __slots__ = (
        "_subs",
        "_live",
        "_ring",
        "_draining",
        "want_submit",
        "want_schedule",
        "want_start",
        "want_complete",
        "want_transfer",
        "want_evict",
        "want_fault",
        "want_flush",
    )

    def __init__(self) -> None:
        self._subs: dict[str, list[Callable]] = {k: [] for k in EVENT_KINDS}
        # emission-side snapshots: a tuple per kind, rebuilt on
        # (un)subscribe, so delivery never copies and unsubscribing from
        # inside a callback cannot corrupt an in-flight dispatch
        self._live: dict[str, tuple[Callable, ...]] = {
            k: () for k in EVENT_KINDS
        }
        # batched-dispatch ring: (subscriber-snapshot, event) pairs
        # waiting for the next drain
        self._ring: list = []
        self._draining = False
        for kind in EVENT_KINDS:
            setattr(self, "want_" + kind, False)

    # -- subscription --------------------------------------------------------

    def subscribe(self, kind: str, fn: Callable) -> Callable[[], None]:
        """Register ``fn`` for one event kind; returns an unsubscriber."""
        try:
            subs = self._subs[kind]
        except KeyError:
            raise KeyError(
                f"unknown engine event kind {kind!r}; known: {EVENT_KINDS}"
            ) from None
        subs.append(fn)
        self._live[kind] = tuple(subs)
        setattr(self, "want_" + kind, True)

        def unsubscribe() -> None:
            try:
                subs.remove(fn)
            except ValueError:
                return
            self._live[kind] = tuple(subs)
            setattr(self, "want_" + kind, bool(subs))

        return unsubscribe

    def attach(self, observer: object) -> Callable[[], None]:
        """Bind every ``on_<kind>`` method ``observer`` defines.

        Returns a detach callable undoing all of them.  Raises
        ``TypeError`` when the object defines none (almost certainly a
        misspelled method name).
        """
        undos = [
            self.subscribe(kind, fn)
            for kind in EVENT_KINDS
            if callable(fn := getattr(observer, f"on_{kind}", None))
        ]
        if not undos:
            raise TypeError(
                f"{type(observer).__name__} defines no on_<kind> methods "
                f"(kinds: {EVENT_KINDS})"
            )

        def detach() -> None:
            for undo in undos:
                undo()

        return detach

    def n_subscribers(self, kind: str | None = None) -> int:
        if kind is not None:
            return len(self._subs[kind])
        return sum(len(v) for v in self._subs.values())

    # -- emission (engine-internal) ------------------------------------------
    #
    # Each emitter short-circuits on "no subscribers" before building
    # the payload (the engine usually pre-checks the matching want_*
    # flag and skips even the call).  With subscribers, the payload and
    # the emission-time subscriber snapshot are pushed onto the ring;
    # dispatch happens in batches at drain points.

    def _enqueue(self, subs: tuple, event) -> None:
        ring = self._ring
        ring.append((subs, event))
        if len(ring) >= RING_CAPACITY:
            self.drain()

    def drain(self) -> None:
        """Dispatch every buffered event, in emission order.

        The engine calls this at its sync points (end of ``submit``,
        host accesses, ``wait_for_all``, shutdown); it is also safe —
        and a no-op — for anyone else to call at any time.  Events
        enqueued *by* a callback ride the same drain; a drain triggered
        from inside a callback (ring full mid-dispatch) defers to the
        outer one.
        """
        if self._draining:
            return
        ring = self._ring
        if not ring:
            return
        self._draining = True
        try:
            i = 0
            while i < len(ring):
                subs, event = ring[i]
                for fn in subs:
                    fn(event)
                i += 1
            ring.clear()
        finally:
            self._draining = False

    def emit_submit(self, time: float, task: "Task") -> None:
        subs = self._live["submit"]
        if subs:
            self._enqueue(subs, SubmitEvent(time, task))

    def emit_schedule(
        self, time: float, task: "Task", decision: "Decision", attempt: int
    ) -> None:
        subs = self._live["schedule"]
        if subs:
            self._enqueue(subs, ScheduleEvent(time, task, decision, attempt))

    def emit_start(self, time: float, task: "Task") -> None:
        subs = self._live["start"]
        if subs:
            self._enqueue(subs, StartEvent(time, task))

    def emit_complete(self, time: float, task: "Task", record) -> None:
        subs = self._live["complete"]
        if subs:
            self._enqueue(subs, CompleteEvent(time, task, record))

    def emit_transfer(self, time: float, record, task: "Task | None") -> None:
        subs = self._live["transfer"]
        if subs:
            self._enqueue(subs, TransferEvent(time, record, task))

    def emit_evict(self, time: float, record) -> None:
        subs = self._live["evict"]
        if subs:
            self._enqueue(subs, EvictEvent(time, record))

    def emit_fault(self, time: float, record) -> None:
        subs = self._live["fault"]
        if subs:
            self._enqueue(subs, FaultEvent(time, record))

    def emit_flush(self, time: float) -> None:
        subs = self._live["flush"]
        if subs:
            self._enqueue(subs, FlushEvent(time))
        # flush marks "finalize buffered state now" — deliver immediately
        self.drain()
