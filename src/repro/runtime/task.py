"""Tasks: scheduled invocations of a codelet on registered operands.

Component invocations are translated (by generated entry-wrappers) into
tasks, which are executed non-preemptively by the runtime.  Tasks are
stateless — all state travels through their operand data handles — and
may be synchronous (the caller blocks) or asynchronous (control returns
immediately; ordering is inferred from data accesses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import TYPE_CHECKING, Mapping

from repro.errors import RuntimeSystemError
from repro.runtime.access import AccessMode
from repro.runtime.codelet import Codelet, ImplVariant
from repro.runtime.data import DataHandle
from repro.runtime.stats import GeneratedName

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.description import ProcessingUnit


class TaskState(Enum):
    """Lifecycle of a task inside the runtime."""

    SUBMITTED = "submitted"  # waiting on dependencies
    READY = "ready"  # dependencies satisfied, not yet assigned
    SCHEDULED = "scheduled"  # assigned to worker(s), timeline computed
    DONE = "done"


@dataclass(slots=True)
class Operand:
    """One (handle, access-mode) pair of a task.

    ``slot`` is the task's place among the handle's readers since the
    last write (read-only operands), so completion finds it in
    ``pending_readers`` without a search.
    """

    handle: DataHandle
    mode: AccessMode
    slot: int = field(default=-1, repr=False, compare=False)


class Task:
    """One runtime task.

    Parameters
    ----------
    codelet:
        The functionality to execute; the scheduler picks the variant.
    operands:
        Registered data the task touches, with access modes.
    ctx:
        Call-context properties (problem sizes etc.) passed to kernels,
        cost models, guards and performance models.
    scalar_args:
        Plain (non-registered) values forwarded to the kernel unchanged.
    priority:
        Larger runs earlier among simultaneously-ready tasks.
    parent:
        Set for sub-tasks created by partitioning a single component
        invocation (intra-component parallelism, paper section IV-F).
    name:
        Debugging / tracing label.  Without one, :attr:`name` derives
        ``codelet#<task_id>`` on each read and nothing is stored.
    """

    __slots__ = (
        "task_id",
        "codelet",
        "operands",
        "ctx",
        "scalar_args",
        "priority",
        "parent",
        "_name",
        "state",
        "n_pending_deps",
        "dependents",
        "earliest_start",
        "submit_time",
        "ready_time",
        "start_time",
        "end_time",
        "chosen_variant",
        "workers",
        "submit_seq",
        "dep_ids",
        "n_faults",
        "failed_on",
        "first_fault_arch",
        "_footprint",
        "__weakref__",
    )

    _ids = count()

    def __init__(
        self,
        codelet: Codelet,
        operands: list[Operand],
        ctx: Mapping[str, object] | None = None,
        scalar_args: tuple = (),
        priority: int = 0,
        parent: "Task | None" = None,
        name: str = "",
    ) -> None:
        if not codelet.variants:
            raise RuntimeSystemError(f"codelet {codelet.name!r} has no variants")
        self.task_id: int = next(Task._ids)
        self.codelet = codelet
        self.operands = operands
        self.ctx: dict[str, object] = dict(ctx) if ctx else {}
        self.scalar_args = scalar_args
        self.priority = priority
        self.parent = parent
        #: the name the caller gave ("" for the default)
        self._name = name
        self.state = TaskState.SUBMITTED
        # dependency bookkeeping
        self.n_pending_deps = 0
        self.dependents: list[Task] = []
        #: lower bound on the start time imposed by already-completed
        #: dependencies (their effects are virtual-future even when the
        #: engine has processed them eagerly)
        self.earliest_start = 0.0
        # timeline, filled by the engine
        self.submit_time: float = float("nan")
        self.ready_time: float = float("nan")
        self.start_time: float = float("nan")
        self.end_time: float = float("nan")
        self.chosen_variant: ImplVariant | None = None
        self.workers: tuple["ProcessingUnit", ...] = ()
        # fault-recovery bookkeeping, maintained by the engine
        #: per-engine submission index (stable fault-draw key; the global
        #: ``task_id`` counter differs between runs in one process)
        self.submit_seq: int = -1
        #: ids of the tasks this one was made to depend on at submission
        #: (recorded in the trace for the dependency invariant check)
        self.dep_ids: tuple[int, ...] = ()
        #: number of execution attempts that faulted
        self.n_faults: int = 0
        #: (variant name, anchor unit id) placements that already faulted;
        #: retries prefer placements not in this set.  Lazily allocated
        #: on the first fault (None means "none failed") so the
        #: no-fault hot path skips one set allocation per task.
        self.failed_on: set[tuple[str, int]] | None = None
        #: backend architecture of the first failed attempt (fallback
        #: accounting: recovery on a different arch counts as a fallback)
        self.first_fault_arch: str | None = None
        self._footprint: tuple | None = None

    @property
    def name(self) -> str:
        """The given name, else the default ``codelet#<task_id>``."""
        return self._name or GeneratedName(f"{self.codelet.name}#{self.task_id}")

    # -- dependency graph ---------------------------------------------------

    def add_dependency(self, dep: "Task") -> None:
        """Make this task wait for ``dep``.

        The engine schedules eagerly, so ``dep`` may already be DONE in
        bookkeeping terms while its completion still lies in the virtual
        future; in that case the dependency degenerates to a start-time
        lower bound instead of a pending-counter entry.
        """
        if dep.state is TaskState.DONE or dep.state is TaskState.SCHEDULED:
            self.earliest_start = max(self.earliest_start, dep.end_time)
            return
        dep.dependents.append(self)
        self.n_pending_deps += 1

    def dep_satisfied(self) -> bool:
        """Notify one dependency completed; True when the task turns ready."""
        if self.n_pending_deps <= 0:
            raise RuntimeSystemError(
                f"task {self.name}: dependency release underflow"
            )
        self.n_pending_deps -= 1
        return self.n_pending_deps == 0

    # -- introspection --------------------------------------------------------

    @property
    def handles(self) -> list[DataHandle]:
        return [op.handle for op in self.operands]

    def footprint(self) -> tuple:
        """Size signature used to bucket performance-model history.

        Like StarPU, the footprint hashes the operand sizes
        (log2-bucketed so near-identical sizes share history).  It also
        folds in the *integer* context properties — the declared PEPPHER
        context parameters (problem sizes/counts) that may influence
        cost without changing operand bytes (e.g. a particle count
        driving work over fixed-size buffers).  Float context values
        (coefficients, time points) are payload, not size, and are
        excluded so history is reused across them.  The context may
        override everything with an explicit ``footprint`` entry.

        Derived once per task: operands and context are fixed at
        submission (placement adds only ``ncores``, which is excluded),
        and scheduling, completion and serving all ask for it.
        """
        fp = self._footprint
        if fp is None:
            fp = self._footprint = self._derive_footprint()
        return fp

    def _derive_footprint(self) -> tuple:
        ctx = self.ctx
        if ctx:
            override = ctx.get("footprint")
            if override is not None:
                return (self.codelet.name, override)
            ctx_sizes = tuple(
                (key, _bucket(abs(value)))
                for key, value in sorted(ctx.items())
                if isinstance(value, int)
                and not isinstance(value, bool)
                and key != "ncores"
            )
        else:  # empty-context fast path (common in tight submit loops)
            ctx_sizes = ()
        sizes = tuple(op.handle.nbytes.bit_length() for op in self.operands)
        return (self.codelet.name, sizes, ctx_sizes)

    def run_kernel(self) -> None:
        """Execute the real computation of the chosen variant."""
        if self.chosen_variant is None:
            raise RuntimeSystemError(f"task {self.name}: no variant chosen")
        arrays = tuple(op.handle.array for op in self.operands)
        self.chosen_variant.fn(self.ctx, *arrays, *self.scalar_args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} {self.state.value}>"


class DoneTask:
    """What a handle's ordering state keeps of a completed task.

    A later access only needs a finished dependency's id (for
    ``dep_ids``) and end time (a start-time lower bound), so at
    completion the engine swaps the task out of ``last_writer`` for
    this (a completed reader leaves less still: its id, already in
    ``reader_ids``, and its end time, folded into ``done_readers_end``).
    The task, its
    operands and its context can then be freed even when a long-lived
    handle would otherwise pin them, and the task <-> output-handle
    cycle breaks at completion, so freeing them needs no cyclic garbage
    collection.
    """

    __slots__ = ("task_id", "end_time")
    state = TaskState.DONE

    def __init__(self, task_id: int, end_time: float) -> None:
        self.task_id = task_id
        self.end_time = end_time


def _bucket(nbytes: int) -> int:
    """Log2 size bucket (0 for empty operands)."""
    return int(nbytes).bit_length()
