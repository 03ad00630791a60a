"""Deterministic replay of scheduling decisions.

Recording (:class:`DecisionRecorder`, on the engine's event stream)
logs every ``choose`` call — task codelet, chosen variant, worker ids —
in call order into a compact, JSON-serializable :class:`DecisionLog`.
The ``replay`` scheduler re-executes such a log verbatim: run the same
workload again with it and the engine makes bit-identical placements,
so the resulting trace (after canonical renumbering) must equal the
recorded one exactly.  Divergence — a different task stream, an
unknown variant, an exhausted log — raises
:class:`~repro.errors.ReplayDivergence` instead of silently improvising.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import ReplayDivergence
from repro.runtime.schedulers.base import Decision, EngineView, Scheduler
from repro.runtime.stats import ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.task import Task

#: format marker of saved decision logs
LOG_FORMAT = "repro-decisions"
LOG_VERSION = 1


@dataclass(frozen=True)
class DecisionRecord:
    """One recorded ``Scheduler.choose`` outcome."""

    codelet: str
    variant: str
    worker_ids: tuple[int, ...]


class DecisionLog:
    """Ordered list of scheduling decisions with JSON round-trip."""

    def __init__(self, entries: Iterable[DecisionRecord] = ()) -> None:
        self.entries: list[DecisionRecord] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self.entries)

    def append(self, entry: DecisionRecord) -> None:
        self.entries.append(entry)

    def to_jsonable(self) -> dict:
        return {
            "format": LOG_FORMAT,
            "version": LOG_VERSION,
            "decisions": [asdict(e) for e in self.entries],
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "DecisionLog":
        if doc.get("format") != LOG_FORMAT:
            raise ReplayDivergence(
                "replay.log-format",
                "not a decision-log document (missing format marker)",
            )
        if doc.get("version") != LOG_VERSION:
            raise ReplayDivergence(
                "replay.log-version",
                f"decision-log version {doc.get('version')!r} not supported "
                f"(this build reads version {LOG_VERSION})",
            )
        return cls(
            DecisionRecord(
                codelet=e["codelet"],
                variant=e["variant"],
                worker_ids=tuple(e["worker_ids"]),
            )
            for e in doc.get("decisions", [])
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_jsonable(), indent=1))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DecisionLog":
        return cls.from_jsonable(json.loads(Path(path).read_text()))


class DecisionRecorder:
    """Record scheduling decisions from the engine's typed event stream.

    The engine emits one ``schedule`` event per ``Scheduler.choose``
    call (fault-recovery retries included), so subscribing this observer
    yields every decision the policy makes without touching the
    scheduler object at all.  ``Runtime(record=True)`` attaches one
    automatically.
    """

    def __init__(self, log: DecisionLog | None = None) -> None:
        self.log = log if log is not None else DecisionLog()

    def on_schedule(self, event) -> None:
        self.log.append(
            DecisionRecord(
                codelet=event.task.codelet.name,
                variant=event.decision.variant.name,
                worker_ids=tuple(
                    u.unit_id for u in event.decision.workers
                ),
            )
        )

    def attach(self, engine) -> "DecisionRecorder":
        """Subscribe to ``engine``'s event stream; returns self."""
        engine.events.attach(self)
        return self


class ReplayScheduler(Scheduler):
    """Re-execute a recorded decision log, one entry per ``choose``.

    Constructible without a log (the policy registry instantiates every
    policy with no arguments); actually scheduling against an empty log
    raises :class:`ReplayDivergence` immediately, with a hint to load
    one.  Assign :attr:`log` (or pass it) before running a workload.

    To replay a run recorded under a bulk policy (``"lookahead"``), pass
    the recorded scheduler's ``window_size``: the replay must buffer and
    flush windows at the same points, or task commit order — and with it
    the engine's event tie-breaking — diverges from the recording.  The
    planning step itself is a no-op; ``choose`` pops the log in commit
    order, which equals the recorded flush order.
    """

    name = "replay"

    def __init__(
        self,
        log: DecisionLog | None = None,
        window_size: int | None = None,
    ) -> None:
        self.log = log if log is not None else DecisionLog()
        self._cursor = 0
        if window_size is not None:
            self.is_bulk = True
            self.window_size = int(window_size)

    def plan_window(self, tasks, view) -> None:
        """Bulk-mode hook: nothing to plan, the log already decides."""

    def choose(self, task: "Task", view: EngineView) -> Decision:
        if self._cursor >= len(self.log.entries):
            raise ReplayDivergence(
                "replay.log-exhausted",
                f"decision log has {len(self.log.entries)} entries but the "
                f"run asks for decision {self._cursor + 1} "
                f"(task {task.name!r}); the replayed workload diverged from "
                "the recorded one" + ("" if self.log.entries else
                                     " — was a log loaded at all?"),
                (f"task#{task.task_id}",),
            )
        entry = self.log.entries[self._cursor]
        self._cursor += 1
        if entry.codelet != task.codelet.name:
            raise ReplayDivergence(
                "replay.codelet-mismatch",
                f"decision {self._cursor} was recorded for codelet "
                f"{entry.codelet!r} but the run submits {task.codelet.name!r}",
                (f"task#{task.task_id}",),
            )
        variant = next(
            (v for v in task.codelet.variants if v.name == entry.variant), None
        )
        if variant is None:
            raise ReplayDivergence(
                "replay.unknown-variant",
                f"decision {self._cursor} picks variant {entry.variant!r} "
                f"which codelet {task.codelet.name!r} does not provide "
                f"({[v.name for v in task.codelet.variants]})",
                (f"task#{task.task_id}",),
            )
        try:
            workers = tuple(view.machine.unit(u) for u in entry.worker_ids)
        except Exception:
            raise ReplayDivergence(
                "replay.unknown-worker",
                f"decision {self._cursor} places on workers "
                f"{entry.worker_ids} which the machine "
                f"{view.machine.name!r} does not have",
                (f"task#{task.task_id}",),
            ) from None
        return Decision(variant=variant, workers=workers)


# ---------------------------------------------------------------------------
# trace comparison
# ---------------------------------------------------------------------------

#: counters that may legitimately differ between a recorded run and its
#: replay (the replay scheduler never explores)
_REPLAY_IGNORED = ("n_exploration_decisions",)


def _comparable(trace: ExecutionTrace, ignore: tuple[str, ...]) -> dict:
    doc = trace.canonicalized().state_dict()
    for name in ignore:
        doc.pop(name, None)
    return doc


def assert_traces_identical(
    recorded: ExecutionTrace,
    replayed: ExecutionTrace,
    ignore: tuple[str, ...] = _REPLAY_IGNORED,
) -> None:
    """Raise :class:`ReplayDivergence` unless the canonicalized traces
    are bit-identical (modulo the ``ignore``\\ d counters)."""
    a = _comparable(recorded, ignore)
    b = _comparable(replayed, ignore)
    if a == b:
        return
    for key in a:
        va, vb = a[key], b[key]
        if va == vb:
            continue
        if isinstance(va, list) and isinstance(vb, list):
            if len(va) != len(vb):
                raise ReplayDivergence(
                    "replay.trace-mismatch",
                    f"{key}: recorded run has {len(va)} records, replay "
                    f"has {len(vb)}",
                    (key,),
                )
            for i, (ra, rb) in enumerate(zip(va, vb)):
                if ra != rb:
                    diff = {
                        k: (ra[k], rb[k]) for k in ra if ra[k] != rb[k]
                    }
                    raise ReplayDivergence(
                        "replay.trace-mismatch",
                        f"{key}[{i}] differs between recorded run and "
                        f"replay: {diff}",
                        (f"{key}[{i}]",),
                    )
        raise ReplayDivergence(
            "replay.trace-mismatch",
            f"{key}: recorded {va!r} != replayed {vb!r}",
            (key,),
        )
    raise ReplayDivergence(  # pragma: no cover - defensive
        "replay.trace-mismatch", "traces differ"
    )


def record_and_replay(run, machine_factory=None, **runtime_kwargs):
    """Convenience: execute ``run(runtime)`` twice — once recording, once
    replaying — and assert the traces are bit-identical.

    ``run`` receives a freshly-built :class:`~repro.runtime.runtime
    .Runtime` and drives a workload against it; this helper shuts the
    runtime down.  Pass either ``machine_factory`` (a zero-argument
    callable — each of the two runs gets its own machine) or a
    ``machine`` in ``runtime_kwargs`` (shared by both).  Returns
    ``(recorded_trace, replayed_trace, log)``.
    """
    from repro.runtime.runtime import Runtime

    if machine_factory is not None:
        if "machine" in runtime_kwargs:
            raise TypeError("pass machine_factory or machine, not both")
        make_machine = machine_factory
    else:
        machine = runtime_kwargs.pop("machine")
        make_machine = lambda: machine  # noqa: E731

    rt = Runtime(make_machine(), record=True, **runtime_kwargs)
    run(rt)
    rt.shutdown()
    recorded, log = rt.trace, rt.decision_log
    assert log is not None
    replay_kwargs = dict(runtime_kwargs)
    replay_kwargs.pop("scheduler", None)
    replay_kwargs.pop("scheduler_options", None)
    replay_options: dict = {"log": DecisionLog(log.entries)}
    if getattr(rt.scheduler, "is_bulk", False):
        # bulk runs must replay with the same window boundaries or the
        # commit order (hence event tie-breaking) diverges
        replay_options["window_size"] = rt.scheduler.window_size
    replay_kwargs["scheduler_options"] = replay_options
    rt2 = Runtime(make_machine(), scheduler="replay", **replay_kwargs)
    run(rt2)
    rt2.shutdown()
    assert_traces_identical(recorded, rt2.trace)
    return recorded, rt2.trace, log
