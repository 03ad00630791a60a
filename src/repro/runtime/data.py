"""Data handles: registered operands with MSI coherence over memory nodes.

A :class:`DataHandle` wraps one NumPy array (the *ground-truth payload* —
real values, checkable in tests) and models where valid *copies* of it
currently live: host RAM (node 0) and each GPU's device memory.  The model
is a classic MSI protocol:

- ``MODIFIED`` — this node holds the only up-to-date copy.
- ``SHARED``   — this node holds an up-to-date copy; others may too.
- ``INVALID``  — this node's copy (if allocated) is stale.

Transfers are *lazy*: a copy is made only when a task (or the host
program) actually needs the data at a node where it is not valid.  This
is exactly the smart-container behaviour of the paper's Figure 3, where a
four-call scenario needs 2 copies instead of the 7 a copy-every-call
strategy performs.

The handle also tracks, per StarPU's *sequential data consistency*, which
task last wrote it and which tasks have read it since — the information
needed to infer implicit dependencies between asynchronously submitted
tasks (paper section IV-E).
"""

from __future__ import annotations

from array import array
from enum import Enum
from itertools import count
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import DataConsistencyError
from repro.hw.description import HOST_NODE
from repro.runtime.stats import GeneratedName

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.task import DoneTask, Task


#: the pending readers of every handle read by no task since its last write
_NO_READERS: Mapping = MappingProxyType({})


class CopyState(Enum):
    """MSI state of one node's copy of a handle."""

    INVALID = "invalid"
    SHARED = "shared"
    MODIFIED = "modified"


class DataHandle:
    """One registered operand.

    Parameters
    ----------
    array:
        Ground-truth payload.  Tasks compute on this array directly (the
        simulation separates *values*, which are real, from *placement
        and timing*, which are modeled).
    n_nodes:
        Number of memory nodes in the machine.
    name:
        Debugging / tracing label.  Without one the handle is named
        ``data<handle_id>``, a :class:`~repro.runtime.stats.GeneratedName`
        (which the trace's canonical form renumbers, unlike a given name).

    ``last_writer`` is the task a new access must order after; once it
    completes, the engine replaces it by a
    :class:`~repro.runtime.task.DoneTask`, which keeps only ``task_id``,
    ``end_time`` and ``state``.  A writer also orders after every reader
    since the last write: their ids are kept in ``reader_ids``, in the
    order they read (a reader's *slot*), and only the readers still
    pending are kept as objects, in ``pending_readers`` (slot -> task).
    A completed reader leaves just its id and, folded into
    ``done_readers_end``, its end time.
    """

    _ids = count()

    def __init__(self, array: np.ndarray, n_nodes: int, name: str = "") -> None:
        if n_nodes < 1:
            raise DataConsistencyError("need at least the host memory node")
        self.handle_id: int = next(DataHandle._ids)
        self.array = np.asarray(array)
        #: payload size in bytes (cached: the array is never reassigned,
        #: and schedulers query this on the per-candidate hot path)
        self.nbytes: int = int(self.array.nbytes)
        self.name = name or GeneratedName(f"data{self.handle_id}")
        self._states: list[CopyState] = [CopyState.INVALID] * n_nodes
        self._states[HOST_NODE] = CopyState.MODIFIED
        #: node of the sole MODIFIED copy, or None when copies are
        #: SHARED.  Maintained by every state transition; lets the
        #: hot-path queries (pick_source, mark_modified) skip their
        #: node scans in the common sole-owner case.
        self._owner: int | None = HOST_NODE
        #: virtual time at which each node's copy becomes valid
        self._ready_at: list[float] = [0.0] * n_nodes
        #: virtual time of the last use of each node's copy (LRU eviction)
        self._last_used: list[float] = [0.0] * n_nodes
        # --- sequential-consistency bookkeeping -------------------------
        self.reset_host_access()  # last_writer and the reader state
        # --- partitioning ------------------------------------------------
        self.parent: DataHandle | None = None
        self.children: list[DataHandle] = []
        self.unregistered = False

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._states)

    @property
    def partitioned(self) -> bool:
        return bool(self.children)

    def state(self, node: int) -> CopyState:
        return self._states[node]

    def is_valid(self, node: int) -> bool:
        return self._states[node] is not CopyState.INVALID

    def ready_at(self, node: int) -> float:
        """Virtual time the copy at ``node`` becomes valid (only
        meaningful when the node is or is becoming valid)."""
        return self._ready_at[node]

    def valid_nodes(self) -> list[int]:
        return [n for n, s in enumerate(self._states) if s is not CopyState.INVALID]

    def pick_source(self) -> int:
        """Choose the node to copy from: the valid copy that is ready
        earliest (ties broken toward the host, which every link touches).

        Nodes are scanned in index order (host first), so keeping the
        first node with the strictly-earliest ready time implements the
        (ready, non-host, node) tie-break without per-node key tuples.
        """
        owner = self._owner
        if owner is not None:  # sole valid copy — nothing to compare
            return owner
        ready = self._ready_at
        invalid = CopyState.INVALID
        best = -1
        best_r = 0.0
        for n, s in enumerate(self._states):
            if s is invalid:
                continue
            r = ready[n]
            if best < 0 or r < best_r:
                best, best_r = n, r
        if best < 0:
            raise DataConsistencyError(
                f"handle {self.name!r} has no valid copy anywhere"
            )
        return best

    def touch(self, node: int, t: float) -> None:
        """Record a use of the copy at ``node`` (for LRU eviction)."""
        if t > self._last_used[node]:
            self._last_used[node] = t

    def last_used(self, node: int) -> float:
        return self._last_used[node]

    # -- state transitions (invoked by the engine) --------------------------

    def invalidate(self, node: int) -> None:
        """Drop the copy at ``node`` (eviction); some other copy must
        remain valid, otherwise data would be lost."""
        if self._states[node] is CopyState.INVALID:
            return
        others_valid = any(
            s is not CopyState.INVALID
            for n, s in enumerate(self._states)
            if n != node
        )
        if not others_valid:
            raise DataConsistencyError(
                f"handle {self.name!r}: evicting node {node} would lose the "
                "only valid copy (flush it home first)"
            )
        self._states[node] = CopyState.INVALID
        # a remaining single SHARED copy is effectively the owner
        valid = [n for n, s in enumerate(self._states) if s is not CopyState.INVALID]
        if len(valid) == 1:
            self._states[valid[0]] = CopyState.MODIFIED
            self._owner = valid[0]
        self._check_invariants()

    def recover_from_node_loss(self, node: int, t: float) -> bool:
        """Drop the copy at ``node`` after its device was lost.

        Unlike :meth:`invalidate` (a policy decision that refuses to lose
        the only valid copy), device loss is involuntary: the replica is
        gone no matter what.  When another node still holds a valid copy
        the loss degenerates to a plain invalidation.  When the lost node
        was the *sole owner*, the handle is re-sourced from the host
        shadow: kernels compute on the host-resident ground-truth payload
        and device copies are placement/timing model state, so the engine
        recovers by re-validating the host copy at the loss time — the
        modeled equivalent of a runtime that lazily write-backs device
        data and replays from the last host checkpoint.

        Returns True when sole-owner recovery was needed (callers record
        a ``replica_lost`` fault for it), False for a plain invalidation,
        and False without side effects when the node held no valid copy.
        """
        if node == HOST_NODE:
            raise DataConsistencyError("the host memory node cannot be lost")
        if self._states[node] is CopyState.INVALID:
            return False
        if any(
            s is not CopyState.INVALID
            for n, s in enumerate(self._states)
            if n != node
        ):
            self.invalidate(node)
            return False
        self._states[node] = CopyState.INVALID
        self._states[HOST_NODE] = CopyState.MODIFIED
        self._owner = HOST_NODE
        self._ready_at[HOST_NODE] = max(self._ready_at[HOST_NODE], t)
        self._check_invariants()
        return True

    def mark_shared(self, node: int, ready_at: float) -> None:
        """A valid copy appears at ``node`` (via transfer); any MODIFIED
        copy elsewhere degrades to SHARED — both are now up to date.

        No invariant check: the transition cannot leave a MODIFIED copy
        behind, so the MSI invariants hold by construction (these two
        transitions are on the per-task hot path).
        """
        states = self._states
        for n, s in enumerate(states):
            if s is CopyState.MODIFIED:
                states[n] = CopyState.SHARED
        states[node] = CopyState.SHARED
        self._owner = None
        if ready_at > self._ready_at[node]:
            self._ready_at[node] = ready_at

    def mark_modified(self, node: int, ready_at: float) -> None:
        """``node`` is written: it becomes the single valid copy.

        No invariant check — single MODIFIED owner by construction.
        """
        if self._owner != node:
            states = self._states
            for n in range(len(states)):
                states[n] = CopyState.INVALID
            states[node] = CopyState.MODIFIED
            self._owner = node
        self._ready_at[node] = ready_at

    def _check_invariants(self) -> None:
        states = self._states
        modified = [n for n, s in enumerate(states) if s is CopyState.MODIFIED]
        if len(modified) > 1:
            raise DataConsistencyError(
                f"handle {self.name!r}: multiple MODIFIED copies at {modified}"
            )
        if modified and any(s is CopyState.SHARED for s in states):
            raise DataConsistencyError(
                f"handle {self.name!r}: MODIFIED coexists with SHARED"
            )
        if not any(s is not CopyState.INVALID for s in states):
            raise DataConsistencyError(f"handle {self.name!r}: no valid copy")

    # -- sequential data consistency ---------------------------------------

    def dependencies_for(self, writes: bool) -> list["Task | DoneTask"]:
        """Tasks a new access must wait for (StarPU's R/W ordering):

        - a reader waits for the last writer;
        - a writer waits for the last writer *and* every reader since.

        A completed reader comes back as a ``DoneTask`` stand-in carrying
        ``done_readers_end``, which bounds a new access's start alike.
        """
        from repro.runtime.task import DoneTask

        deps = [] if self.last_writer is None else [self.last_writer]
        if writes:
            pending, end = self.pending_readers, self.done_readers_end
            deps += (
                pending.get(slot) or DoneTask(tid, end)
                for slot, tid in enumerate(self.reader_ids or ())
            )
        return deps

    def reader_deps(self, seen: set, deps: list, ids: list) -> float:
        """Add the readers since the last write that a writer waits for,
        each once (``seen`` holds the ids already added): every reader's
        id to ``ids`` in slot order, a pending reader also to ``deps``.
        Returns ``done_readers_end``, which bounds the writer's start."""
        pending = self.pending_readers
        for slot, tid in enumerate(self.reader_ids or ()):
            if tid not in seen:
                seen.add(tid)
                ids.append(tid)
                dep = pending.get(slot)
                if dep is not None:
                    deps.append(dep)
        return self.done_readers_end

    def record_access(self, task: "Task", writes: bool) -> int:
        """Register ``task``'s access in submission order; returns a
        reader's slot (-1 for a writer)."""
        if writes:
            self.reset_host_access()
            self.last_writer = task
            return -1
        ids = self.reader_ids
        if ids is None:
            ids = self.reader_ids = array("q")
            self.pending_readers = {}
        self.pending_readers[len(ids)] = task
        ids.append(task.task_id)
        return len(ids) - 1

    def reset_host_access(self) -> None:
        """The host program wrote the data (acquire-RW): task-level
        ordering restarts from the host copy."""
        self.last_writer: "Task | DoneTask | None" = None
        #: None until the first read since the last write, which also
        #: gives the handle a dict of its own in place of the shared empty
        self.reader_ids: array | None = None
        self.pending_readers: Mapping[int, "Task"] = _NO_READERS
        self.done_readers_end = 0.0

    def reader_done(self, task: "Task", slot: int) -> None:
        """Reader ``task``, recorded at ``slot``, completed: it leaves
        ``pending_readers``, and its end time folds into
        ``done_readers_end``.  A write since the read restarted the
        slots, and the new ones do not hold ``task``."""
        pending = self.pending_readers
        if pending.get(slot) is task:
            del pending[slot]
            if task.end_time > self.done_readers_end:
                self.done_readers_end = task.end_time

    def latest_end(self, writes: bool) -> float:
        """The latest end time among the tasks a new access waits for
        (0.0 with none; a pending task's NaN end time is skipped)."""
        tasks = (self.last_writer, *(self.pending_readers.values() if writes else ()))
        base = self.done_readers_end if writes else 0.0
        return max([base, *(t.end_time for t in tasks if t is not None)])

    # -- partitioning --------------------------------------------------------

    def partition_by_slices(
        self, slices: Sequence[tuple[slice, ...] | slice]
    ) -> list["DataHandle"]:
        """Split this handle into child handles over *views* of the payload.

        Children inherit the parent's coherence state, so a handle that is
        valid on the GPU stays valid chunk-wise.  While partitioned, the
        parent must not be used by tasks (use :meth:`unpartition` first).
        """
        if self.partitioned:
            raise DataConsistencyError(f"handle {self.name!r} already partitioned")
        if not slices:
            raise DataConsistencyError("partition needs at least one slice")
        for i, sl in enumerate(slices):
            view = self.array[sl]
            if view.base is None and view.size and view is not self.array:
                raise DataConsistencyError(
                    f"slice {i} of handle {self.name!r} is not a view"
                )
            child = DataHandle(view, self.n_nodes, name=f"{self.name}[{i}]")
            child._states = list(self._states)
            child._owner = self._owner
            child._ready_at = list(self._ready_at)
            # children inherit the parent's ordering state so chunk tasks
            # still serialize correctly against pre-partition accesses
            child.last_writer = self.last_writer
            if self.reader_ids is not None:
                child.reader_ids = array("q", self.reader_ids)
                child.pending_readers = dict(self.pending_readers)
                child.done_readers_end = self.done_readers_end
            child.parent = self
            self.children.append(child)
        return list(self.children)

    def partition_equal(self, n_chunks: int, axis: int = 0) -> list["DataHandle"]:
        """Split into ``n_chunks`` nearly equal blocks along ``axis``."""
        if n_chunks < 1:
            raise DataConsistencyError(f"n_chunks must be >= 1, got {n_chunks}")
        length = self.array.shape[axis]
        bounds = np.linspace(0, length, n_chunks + 1).astype(int)
        slices = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sl: list[slice] = [slice(None)] * self.array.ndim
            sl[axis] = slice(int(lo), int(hi))
            slices.append(tuple(sl))
        return self.partition_by_slices(slices)

    def drop_partition(self) -> None:
        """Forget the children (the engine gathers them first)."""
        for child in self.children:
            child.parent = None
            child.unregistered = True
        self.children = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ",".join(s.value[0] for s in self._states)
        return f"<DataHandle {self.name} #{self.handle_id} [{states}]>"
