"""The discrete-event execution engine.

Design (see DESIGN.md section 5): the *application's main program* runs
eagerly as ordinary Python and submits tasks; the engine immediately
resolves each task's implicit dependencies, and as soon as a task becomes
ready it asks the scheduling policy for a (variant, workers) decision and
computes the task's timeline — staging transfers on the PCIe links,
start on the chosen worker(s), modeled execution time with noise, end.
Completions are processed in virtual-time order from an event heap; each
completion releases dependents and feeds the performance model, so later
scheduling decisions see exactly the history a real runtime would have at
that (virtual) moment.

Host-side blocking points — smart-container accesses, synchronous calls,
``wait_for_all`` — advance the virtual clock only as far as the awaited
result requires, so the host program genuinely overlaps with outstanding
asynchronous tasks (paper section IV-E).

Values vs. time: kernels run *for real* on the NumPy payloads (results
are checkable), in dependency order; only the *durations* are modeled.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import count
from typing import Iterable

import numpy as np

from repro.errors import (
    DataConsistencyError,
    DeviceLostError,
    HardwareFault,
    KernelExecutionError,
    PeppherError,
    RuntimeSystemError,
    TransferFault,
    TransientKernelFault,
    UnrecoverableTaskError,
)
from repro.exec.base import ExecFuture, ExecutionBackend
from repro.exec.timing import Measurement
from repro.hw.clock import VirtualClock
from repro.hw.faults import FaultModel
from repro.hw.description import (
    DIRECTIONS,
    HOST_NODE,
    Machine,
    ProcessingUnit,
    copy_route,
    transfer_direction,
)
from repro.hw.noise import NoiseModel
from repro.runtime.access import AccessMode
from repro.runtime.codelet import ImplVariant
from repro.runtime.data import CopyState, DataHandle
from repro.runtime.events import EngineEvents
from repro.runtime.perfmodel import PerfModel
from repro.runtime.schedulers.base import Decision, Scheduler
from repro.runtime.stats import (
    AccessRecord,
    EvictionRecord,
    ExecutionTrace,
    FaultRecord,
)
from repro.runtime.task import DoneTask, Task, TaskState


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the engine reacts to injected hardware faults.

    The policy is deliberately StarPU-shaped: a failed execution attempt
    is retried a bounded number of times with exponential backoff *in
    virtual time*, preferring placements (variant, worker) that have not
    faulted yet for that task — which is what makes multi-variant
    codelets cheap to recover (a failed CUDA attempt falls back to the
    CPU/OpenMP variant).  Workers accumulating faults are blacklisted,
    and transfers get their own small retransmission budget because a
    corrupted copy is repaired on the wire, not by rescheduling.
    """

    #: failed execution attempts tolerated per task before giving up
    max_retries: int = 3
    #: first retry is delayed by this much virtual time...
    backoff_base_s: float = 1e-4
    #: ...growing by this factor per subsequent attempt...
    backoff_factor: float = 2.0
    #: ...up to this cap
    backoff_cap_s: float = 1e-2
    #: transient faults on one worker before it is blacklisted
    blacklist_after: int = 8
    #: retransmissions tolerated per committed transfer
    max_transfer_retries: int = 3
    #: relative jitter applied to each backoff delay: the delay is
    #: scaled by a factor in ``[1 - jitter, 1 + jitter]`` drawn from a
    #: stream keyed by the retry's identity, so concurrent retries
    #: desynchronize (no thundering herd) while replays of the same
    #: seed stay byte-identical.  0 disables jitter (the old behavior).
    backoff_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_transfer_retries < 0:
            raise ValueError("max_transfer_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.blacklist_after < 1:
            raise ValueError("blacklist_after must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )

    def backoff(self, attempt: int, u: float | None = None) -> float:
        """Virtual-time delay before retry number ``attempt`` (1-based).

        ``u`` is a uniform [0, 1) sample supplied by the caller (the
        engine keys it to the retry's identity); the jittered delay is
        still capped at ``backoff_cap_s``, so the cap is the hard
        maximum delay regardless of jitter.  ``None`` skips jitter.
        """
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if u is not None and self.backoff_jitter > 0.0:
            delay *= 1.0 + self.backoff_jitter * (2.0 * u - 1.0)
        return min(self.backoff_cap_s, delay)


class _WorkerState:
    """Mutable per-worker scheduling state."""

    __slots__ = ("unit", "available_at", "assigned_count")

    def __init__(self, unit: ProcessingUnit) -> None:
        self.unit = unit
        self.available_at = 0.0
        self.assigned_count = 0


class Engine:
    """Discrete-event engine implementing the EngineView protocol."""

    def __init__(
        self,
        machine: Machine,
        scheduler: Scheduler,
        perfmodel: PerfModel | None = None,
        noise: NoiseModel | None = None,
        submit_overhead_s: float = 1e-6,
        seed: int = 0,
        run_kernels: bool = True,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        exec_backend: ExecutionBackend | None = None,
    ) -> None:
        """
        Parameters
        ----------
        submit_overhead_s:
            Host-side virtual time charged per task submission (the
            paper reports StarPU task overhead below ~2 microseconds).
        run_kernels:
            When False, skip the real NumPy computation and only model
            time — used by pure scheduling experiments where values are
            irrelevant and kernels would be wasted work.
        faults:
            Optional :class:`~repro.hw.faults.FaultModel` injecting
            transient kernel failures, transfer corruption and device
            loss.  ``None`` (the default) disables the whole fault path
            with zero overhead; a model with all rates zero behaves
            bit-identically.
        recovery:
            Retry/backoff/blacklist policy applied when ``faults`` is
            active (defaults to :class:`RecoveryPolicy`).
        exec_backend:
            Where kernel computations actually run (see
            :mod:`repro.exec`).  ``None`` and *inline* backends (e.g.
            :class:`~repro.exec.simulated.SimulatedBackend`) keep the
            original synchronous path byte-identical; real backends
            (thread/process pools) dispatch kernels as futures that the
            engine joins at data-hazard and host-access points, and
            every joined kernel feeds a wall-clock sample into the
            performance model under the ``"measured"`` provenance.
        """
        self.machine = machine
        self.scheduler = scheduler
        self.perf = perfmodel or PerfModel()
        self.noise = noise or NoiseModel(seed=seed)
        self.faults = faults
        #: hot-path gate: scripted device losses exist at all (the
        #: per-placement _fire_due_losses call is skipped entirely when
        #: no loss is scripted — the common, fault-free case)
        self._scripted_losses = faults is not None and bool(faults.device_loss_at)
        self.recovery = recovery or RecoveryPolicy()
        self.clock = VirtualClock()
        if faults is not None:
            faults.validate_for(machine, now=self.clock.now)
        self.trace = ExecutionTrace()
        self.submit_overhead_s = float(submit_overhead_s)
        self.run_kernels = run_kernels
        self._seed = int(seed)
        self._workers = [_WorkerState(u) for u in machine.units]
        #: mirror of each worker's available_at, indexed by unit id;
        #: exposed through worker_available_times() so schedulers can
        #: index instead of making one method call per candidate
        self._avail: list[float] = [0.0] * len(self._workers)
        self._gang = tuple(u for u in machine.units if u.is_cpu)
        #: the workers neither lost nor blacklisted, in machine order,
        #: and the CPU gang's usable members; both shrink only in
        #: _retire_worker
        self.usable_units: tuple[ProcessingUnit, ...] = tuple(machine.units)
        self._usable_gang = self._gang
        #: one shared ``(unit_id,)`` per worker: the ``worker_ids`` of
        #: every single-worker task record, instead of a fresh 1-tuple
        self._solo_ids = tuple((u.unit_id,) for u in machine.units)
        #: DMA channel -> time its queue frees up (channels as named
        #: by copy_route)
        self._link_free: dict[tuple[int, str], float] = {}
        #: (src, dst) -> copy_route, filled on first use
        self._routes: dict[tuple[int, int], tuple] = {}
        #: non-host memory nodes, precomputed for per-write residency
        #: sync (machine topology is fixed for the engine's lifetime)
        self._device_nodes: tuple[int, ...] = tuple(
            range(1, machine.n_memory_nodes)
        )
        #: device-memory accounting: resident top-level handles and used
        #: bytes per memory node (host is unlimited and untracked)
        self._resident: list[dict[int, DataHandle]] = [
            {} for _ in range(machine.n_memory_nodes)
        ]
        self._node_usage: list[int] = [0] * machine.n_memory_nodes
        self._node_capacity: list[int | None] = [
            machine.node_capacity(n) for n in range(machine.n_memory_nodes)
        ]
        #: handle_id -> handle given to unregister_submit while tasks
        #: on it were still pending (released at the last completion)
        self._releasing: dict[int, DataHandle] = {}
        self._events: list[tuple[float, int, Task]] = []
        self._event_seq = count()
        #: bulk (window-planning) policy support: buffered tasks awaiting
        #: a window flush.  Checked once here so the eager per-submit
        #: path pays a single attribute test (see schedulers/bulk.py).
        self._bulk = bool(getattr(scheduler, "is_bulk", False))
        self._window: list[Task] = []
        self._last_end = 0.0
        self._n_submitted = 0
        self._n_completed = 0
        self._shutdown = False
        # fault-recovery state
        #: workers whose device is permanently gone
        self._lost_workers: set[int] = set()
        #: workers disabled after repeated transient faults
        self._blacklisted: set[int] = set()
        #: transient-fault tally per worker (blacklist trigger)
        self._worker_faults: dict[int, int] = {}
        #: stable per-engine key stream for committed-transfer fault draws
        self._transfer_draws = count()
        # observability for layers above the engine (the serving front-end)
        #: typed event stream every observing layer subscribes to
        #: (serving front-end, decision recorder, obs metrics/tracing)
        self.events = EngineEvents()
        #: task whose operand staging is currently committing transfers
        #: (attributes TransferEvents to their invocation)
        self._staging_task: Task | None = None
        #: per-codelet feasible-decision cache consulted by
        #: enumerate_candidates (guard-free codelets only); cleared
        #: with the usable state in _retire_worker
        self.candidate_cache: dict[int, tuple] = {}
        #: one-entry (task, footprint, size) cache: schedulers query the
        #: performance model several times per choose() for the same
        #: task, and the footprint cannot change within one choice
        self._fp_cache: tuple[int, tuple, float] | None = None
        #: (src, dst, nbytes) -> seconds memo for Machine.transfer_time
        #: (pure function of the link specs; distinct keys are few)
        self._tt_cache: dict[tuple[int, int, int], float] = {}
        # real-concurrency execution (repro.exec); inline backends take
        # the original synchronous path so defaults stay byte-identical
        self.exec_backend = exec_backend
        self._exec_inline = exec_backend is None or exec_backend.inline
        #: kernels dispatched to the backend but not yet joined
        self._pending_kernels: dict[int, tuple[Task, ExecFuture]] = {}
        #: handle_id -> [(task_id, wrote)] for pending kernels touching it
        self._handle_kernels: dict[int, list[tuple[int, bool]]] = {}
        #: wall-clock measurements of every joined kernel (kept out of
        #: the ExecutionTrace so canonical trace digests are unchanged)
        self.measurements: list[Measurement] = []

    # ------------------------------------------------------------------
    # load introspection and events (serving front-end support)
    # ------------------------------------------------------------------

    def resident_bytes(self, node: int | None = None) -> int:
        """Container bytes resident at one device memory node (or the
        sum over all device nodes; the host is unlimited and untracked)."""
        if node is not None:
            return self._node_usage[node]
        return sum(self._node_usage[1:])

    def backlog_seconds(self, at: float | None = None) -> float:
        """Committed work (seconds) ahead of the most loaded usable worker.

        Zero when every worker is idle at ``at``; the admission layer
        combines this with :class:`~repro.runtime.perfmodel.PerfModel`
        estimates of queued-but-undispatched requests to predict backlog.
        """
        t = self.clock.now if at is None else at
        free = [self._workers[u.unit_id].available_at for u in self.usable_units]
        if not free:
            return 0.0
        return max(0.0, max(free) - t)

    # ------------------------------------------------------------------
    # EngineView protocol (what schedulers may see)
    # ------------------------------------------------------------------

    def worker_available_at(self, unit_id: int) -> float:
        return self._workers[unit_id].available_at

    def worker_available_times(self) -> list[float]:
        """Live per-worker available_at list indexed by unit id.

        Read-only for schedulers; indexing it replaces one
        worker_available_at call per candidate on the choose hot path.
        """
        return self._avail

    def worker_assigned_count(self, unit_id: int) -> int:
        return self._workers[unit_id].assigned_count

    def estimate_data_ready(self, task: Task, node: int) -> float:
        """Earliest time the task's operands could be valid at ``node``.

        Each pending copy is priced by :meth:`copy_arrival`, the walk
        the planner uses too: every hop of its :func:`copy_route` queues
        on that hop's DMA channel, behind committed copies and the
        task's other pending copies (StarPU's dmda models per-link
        queues the same way); ignoring that would make multi-operand
        tasks look systematically cheaper than they are.
        """
        ready = task.ready_time
        invalid = CopyState.INVALID
        link: dict[tuple[int, str], float] = {}
        for op in task.operands:
            if not op.mode.reads:
                continue
            h = op.handle
            if h._states[node] is not invalid:
                r = h._ready_at[node]
            else:
                src = h.pick_source()
                r = self.copy_arrival(
                    src, node, h.nbytes,
                    max(task.ready_time, h._ready_at[src]), link,
                )
            if r > ready:
                ready = r
        return ready

    def copy_arrival(
        self,
        src: int,
        dst: int,
        nbytes: int,
        earliest: float,
        link: dict[tuple[int, str], float],
    ) -> float:
        """EngineView: when a copy ``src`` -> ``dst`` started no earlier
        than ``earliest`` would arrive.

        Walks :meth:`route` hop by hop, as :meth:`_commit_copy` commits
        it: each hop starts once the previous one ends and its DMA
        channel is free, by ``link`` if it holds the channel, else by
        the live queue.  Each hop's end is written back into ``link``,
        so copies priced against one dict serialize on shared channels.
        """
        end = earliest
        for hop_src, hop_dst, channel in self.route(src, dst):
            busy = link.get(channel)
            if busy is None:
                busy = self._link_free.get(channel, 0.0)
            if busy > end:
                end = busy
            end += self.transfer_time(hop_src, hop_dst, nbytes)
            link[channel] = end
        return end

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """EngineView: memoized :meth:`Machine.transfer_time` (called per
        candidate node on the scheduling hot path; the answer only
        depends on the static link specs)."""
        key = (src, dst, nbytes)
        dur = self._tt_cache.get(key)
        if dur is None:
            if len(self._tt_cache) >= 4096:  # leak guard, not policy
                self._tt_cache.clear()
            dur = self._tt_cache[key] = self.machine.transfer_time(
                src, dst, nbytes
            )
        return dur

    def route(self, src: int, dst: int) -> tuple:
        """EngineView: memoized :func:`copy_route` on this machine."""
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = copy_route(
                src, dst, self.machine.duplex
            )
        return route

    def _footprint_size(self, task: Task) -> tuple[tuple, float]:
        """The task's (footprint, total operand bytes), cached while the
        same task is queried repeatedly (one scheduling choice asks for
        several variants; neither value can change mid-choice).  The
        cache keys on the task id, so it holds no task past completion."""
        cached = self._fp_cache
        if cached is not None and cached[0] == task.task_id:
            return cached[1], cached[2]
        fp = task.footprint()
        size = float(sum(op.handle.nbytes for op in task.operands))
        self._fp_cache = (task.task_id, fp, size)
        return fp, size

    def predict_exec(
        self, task: Task, variant: ImplVariant, unit: ProcessingUnit
    ) -> float | None:
        fp, size = self._footprint_size(task)
        return self.perf.predict(fp, variant.name, size)

    def n_samples(self, task: Task, variant: ImplVariant) -> int:
        return self.perf.n_samples(self._footprint_size(task)[0], variant.name)

    def is_calibrated(
        self, task: Task, variant: ImplVariant, min_history: int
    ) -> bool:
        fp, size = self._footprint_size(task)
        return self.perf.calibrated(
            fp, variant.name, size, min_history=min_history
        )

    def note_exploration(self, task: Task) -> None:
        self.trace.n_exploration_decisions += 1

    def cpu_gang(self) -> tuple[ProcessingUnit, ...]:
        # graceful degradation: the gang shrinks around unusable cores
        return self._usable_gang

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        # built at the first draw: only the random policy draws
        return np.random.default_rng(self._seed + 0x5EED)

    def random(self) -> float:
        return float(self._rng.random())

    def worker_usable(self, unit_id: int) -> bool:
        return unit_id not in self._lost_workers and unit_id not in self._blacklisted

    def failed_placements(self, task: Task) -> set[tuple[str, int]]:
        failed = task.failed_on
        return failed if failed is not None else set()

    # ------------------------------------------------------------------
    # data registration
    # ------------------------------------------------------------------

    def register(self, array: np.ndarray, name: str = "") -> DataHandle:
        """Register host data with the runtime's data management."""
        self._check_alive()
        return DataHandle(array, self.machine.n_memory_nodes, name=name)

    def unregister(self, handle: DataHandle) -> float:
        """Flush the handle home (host) and discard device copies.

        Returns the virtual time at which the host copy is consistent.
        """
        self._check_alive()
        if handle.unregistered:
            raise RuntimeSystemError(
                f"handle {handle.name!r} is already unregistered"
            )
        t = self.acquire(handle, AccessMode.R)
        handle.mark_modified(HOST_NODE, t)
        handle.unregistered = True
        self._sync_residency(handle)
        self._record_access("unregister", handle, "", t)
        return t

    def unregister_submit(self, handle: DataHandle) -> None:
        """Release ``handle`` once every task submitted on it so far has
        completed (StarPU's ``starpu_data_unregister_submit``).

        The data is dead: nothing is copied home and no trace row is
        written; the handle just leaves the device-residency tables.
        Later calls on it raise as on an unregistered handle.  Under an
        eager policy the engine has usually completed those tasks inside
        ``submit`` already, so the release is immediate; a task waiting
        on dependencies or in a bulk policy's window defers it to that
        task's completion.
        """
        self._check_alive()
        if handle.unregistered:
            raise RuntimeSystemError(
                f"handle {handle.name!r} is already unregistered"
            )
        if handle.partitioned:
            raise DataConsistencyError(
                f"handle {handle.name!r} is partitioned; unpartition before "
                "unregistering it"
            )
        handle.unregistered = True
        self._releasing[handle.handle_id] = handle
        self._settle_releases((handle,))

    def _settle_releases(self, handles: Iterable[DataHandle]) -> None:
        """Release each of ``handles`` awaiting release whose tasks have
        all completed: drop it from the device-residency tables."""
        releasing = self._releasing
        for h in handles:
            hid = h.handle_id
            if hid in releasing and not _pending(h):
                del releasing[hid]
                for node in self._device_nodes:
                    if self._resident[node].pop(hid, None) is not None:
                        self._node_usage[node] -= h.nbytes

    # ------------------------------------------------------------------
    # task submission
    # ------------------------------------------------------------------

    def submit(self, task: Task, sync: bool = False) -> Task:
        """Submit one task; with ``sync=True``, block until it completes."""
        if self._shutdown:
            self._check_alive()
        if not self._exec_inline and self.run_kernels:
            # fail fast (e.g. unpicklable kernels on a process pool)
            # before the task mutates any engine state
            self.exec_backend.prepare_codelet(task.codelet)
        operands = task.operands
        # one pass validates operands and collects the implicit
        # dependencies via sequential data consistency (StarPU's R/W
        # ordering: a reader waits for the last writer; a writer
        # additionally waits for every reader since).  Collection must
        # finish before any access is recorded below — a task touching
        # one handle twice must see the pre-submit ordering state for
        # both operands.  ``deps`` holds the dependencies kept as objects,
        # ``ids`` every dependency id in order; a completed reader adds
        # only its id, and its end time through ``done_end``.
        done_end = -1.0
        if len(operands) == 1:
            # single-operand fast path: no seen-set for a reader, and no
            # second loop
            op = operands[0]
            h = op.handle
            if h.unregistered:
                raise RuntimeSystemError(
                    f"task {task.name}: operand {h.name!r} is unregistered"
                )
            if h.children:
                raise RuntimeSystemError(
                    f"task {task.name}: operand {h.name!r} is partitioned; "
                    "use its children or unpartition first"
                )
            lw = h.last_writer
            deps = [lw] if lw is not None and lw is not task else []
            ids = [lw.task_id] if deps else []
            task.submit_time = self.clock.advance(self.submit_overhead_s)
            if not op.mode.writes:
                op.slot = h.record_access(task, False)
            elif h.reader_ids is not None:
                done_end = h.reader_deps(set(ids), deps, ids)
                h.record_access(task, True)
            else:
                h.last_writer = task
        else:
            deps = []
            ids = []
            seen = set()
            for op in operands:
                h = op.handle
                if h.unregistered:
                    raise RuntimeSystemError(
                        f"task {task.name}: operand {h.name!r} is unregistered"
                    )
                if h.children:
                    raise RuntimeSystemError(
                        f"task {task.name}: operand {h.name!r} is "
                        "partitioned; use its children or unpartition first"
                    )
                lw = h.last_writer
                if lw is not None and lw.task_id not in seen and lw is not task:
                    seen.add(lw.task_id)
                    deps.append(lw)
                    ids.append(lw.task_id)
                if op.mode.writes:
                    end = h.reader_deps(seen, deps, ids)
                    if end > done_end:
                        done_end = end
            task.submit_time = self.clock.advance(self.submit_overhead_s)
            for op in operands:
                op.slot = op.handle.record_access(task, op.mode.writes)
        if ids:
            if len(ids) == 1 and deps:
                dep = deps[0]
                task.dep_ids = (dep.task_id,)
                # inlined Task.add_dependency (per-task hot path)
                if (
                    dep.state is TaskState.DONE
                    or dep.state is TaskState.SCHEDULED
                ):
                    if dep.end_time > task.earliest_start:
                        task.earliest_start = dep.end_time
                else:
                    dep.dependents.append(task)
                    task.n_pending_deps += 1
            else:
                task.dep_ids = tuple(ids)
                for dep in deps:
                    task.add_dependency(dep)
                if done_end > task.earliest_start:
                    task.earliest_start = done_end
        task.submit_seq = self._n_submitted
        self._n_submitted += 1
        trace = self.trace
        trace.n_submitted += 1
        sbc = trace.submitted_by_codelet
        name = task.codelet.name
        sbc[name] = sbc.get(name, 0) + 1
        ev = self.events
        if ev.want_submit:
            ev.emit_submit(task.submit_time, task)
        try:
            if self._bulk:
                # window buffering: fold the submit time into the start
                # lower bound now (dependents released by a later flush
                # see only earliest_start), defer placement to the flush
                if task.submit_time > task.earliest_start:
                    task.earliest_start = task.submit_time
                self._window.append(task)
                if len(self._window) >= self.scheduler.window_size:
                    self.flush_window()
            elif task.n_pending_deps == 0:
                es = task.earliest_start
                st = task.submit_time
                self._make_ready(task, st if st > es else es)
        finally:
            # also when placement raised: subscribers see a failed
            # task's copies and faults before submit returns
            if self._events:
                self._process_events()
            if ev._ring:
                ev.drain()
        if sync:
            self.wait_for_task(task)
        return task

    def flush_window(self) -> None:
        """Commit every buffered task (bulk policies only; no-op otherwise).

        The window is handed to the scheduler's ``plan_window`` once,
        then each dependency-free task is made ready in submission
        order; dependents cascade through the normal completion
        machinery, so every task still goes through one ``choose`` call
        (fault recovery, schedule events and the trace behave exactly as
        under an eager policy).  A task that cannot be placed is aborted
        but the rest of the window still commits; the first error
        re-raises once the window is drained.
        """
        window = self._window
        if not window:
            return
        self._window = []
        pending = [t for t in window if t.state is TaskState.SUBMITTED]
        if pending:
            self.scheduler.plan_window(pending, self)
        first: PeppherError | None = None
        for task in pending:
            if task.state is not TaskState.SUBMITTED or task.n_pending_deps:
                continue
            try:
                self._make_ready(task, task.earliest_start)
            except PeppherError as exc:
                if first is None:
                    first = exc
        self._process_events()
        if self.events._ring:
            self.events.drain()
        if first is not None:
            raise first

    def wait_for_task(self, task: Task) -> float:
        """Block the host program until ``task`` completes."""
        if self._bulk:
            self.flush_window()
        self._process_events()
        self.events.drain()
        self._join_kernel(task.task_id)
        if task.state is not TaskState.DONE:
            raise RuntimeSystemError(
                f"task {task.name} cannot complete: state {task.state.value} "
                "(missing dependency? engine invariant violated)"
            )
        self.clock.advance_to(task.end_time)
        return task.end_time

    def wait_for_all(self) -> float:
        """Barrier: block until every submitted task has completed."""
        self._check_alive()
        if self._bulk:
            self.flush_window()
        self._process_events()
        self.events.drain()
        self._drain_kernels()
        if self._n_completed != self._n_submitted:
            raise RuntimeSystemError(
                f"{self._n_submitted - self._n_completed} tasks never completed"
            )
        self.clock.advance_to(self._last_end)
        return self.clock.now

    # ------------------------------------------------------------------
    # host-side data access (smart containers call this)
    # ------------------------------------------------------------------

    def acquire(self, handle: DataHandle, mode: AccessMode) -> float:
        """Block until ``handle`` may be accessed on the host with ``mode``.

        Implements the paper's Figure 3 semantics: a read of an outdated
        master copy triggers one implicit device-to-host copy; a host
        write additionally invalidates device copies and resets the
        task-ordering state (the host now owns the data).
        """
        self._check_alive()
        if handle.unregistered:
            raise RuntimeSystemError(
                f"handle {handle.name!r} is unregistered; after unregister() "
                "the flushed host array remains usable directly"
            )
        if handle.partitioned:
            raise DataConsistencyError(
                f"handle {handle.name!r} is partitioned; unpartition before "
                "accessing it from the application program"
            )
        if self._bulk:
            self.flush_window()
        self._process_events()
        self._drain_kernels()
        t = max(self.clock.now, handle.latest_end(mode.writes))
        self._fire_due_losses(t)
        if mode.reads:
            t = max(t, self._commit_copy(handle, HOST_NODE, earliest=t))
        if mode.writes:
            handle.mark_modified(HOST_NODE, t)
            handle.reset_host_access()
            self._sync_residency(handle)
        self._record_access("acquire", handle, str(mode.value), t)
        self.events.drain()
        self.clock.advance_to(t)
        return t

    def _record_access(
        self,
        kind: str,
        handle: DataHandle,
        mode: str,
        t: float,
        related: tuple[int, ...] = (),
    ) -> None:
        self.trace.record_access(
            AccessRecord.make(
                kind=kind,
                handle_id=handle.handle_id,
                handle_name=handle.name,
                mode=mode,
                time=t,
                related=related,
            )
        )

    # ------------------------------------------------------------------
    # partitioning (intra-component parallelism, paper section IV-F)
    # ------------------------------------------------------------------

    def partition_by_slices(
        self, handle: DataHandle, slices: Iterable
    ) -> list[DataHandle]:
        """Split a handle into chunk children usable as task operands."""
        self._check_alive()
        children = handle.partition_by_slices(list(slices))
        self._record_access(
            "partition",
            handle,
            "",
            self.clock.now,
            related=tuple(c.handle_id for c in children),
        )
        return children

    def partition_equal(
        self, handle: DataHandle, n_chunks: int, axis: int = 0
    ) -> list[DataHandle]:
        self._check_alive()
        children = handle.partition_equal(n_chunks, axis=axis)
        self._record_access(
            "partition",
            handle,
            "",
            self.clock.now,
            related=tuple(c.handle_id for c in children),
        )
        return children

    def unpartition(self, handle: DataHandle) -> float:
        """Gather all chunk children back into a consistent host copy."""
        self._check_alive()
        if not handle.partitioned:
            return self.clock.now
        if self._bulk:
            self.flush_window()
        self._process_events()
        self._drain_kernels()
        t = self.clock.now
        for child in handle.children:
            t = max(t, child.latest_end(True))
        self._fire_due_losses(t)
        ready = t
        for child in handle.children:
            ready = max(ready, self._commit_copy(child, HOST_NODE, earliest=t))
        children = tuple(c.handle_id for c in handle.children)
        handle.mark_modified(HOST_NODE, ready)
        handle.reset_host_access()
        handle.drop_partition()
        self._sync_residency(handle)
        self._record_access("unpartition", handle, "", ready, related=children)
        self.events.drain()
        self.clock.advance_to(ready)
        return ready

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> float:
        """Drain all tasks and stop accepting work.

        Emits the ``flush`` event *after* draining but before returning,
        so event subscribers (samplers, span tracers, recorders) finalize
        their buffered state before any shutdown-time consumer — trace
        invariant checking, trace export, model persistence — observes
        the run.
        """
        if self._shutdown:
            return self.clock.now
        t = self.wait_for_all()
        self._shutdown = True
        self.events.emit_flush(t)
        return t

    def _check_alive(self) -> None:
        if self._shutdown:
            raise RuntimeSystemError("runtime has been shut down")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _make_ready(self, task: Task, t: float) -> None:
        task.state = TaskState.READY
        task.ready_time = t
        try:
            self._place_with_recovery(task)
        except PeppherError:
            # keep the engine consistent when a task cannot be placed
            # (no feasible variant, device out of memory, ...): abort the
            # task, release its dependents, and let the error propagate
            self._abort(task, t)
            raise

    def _place_with_recovery(self, task: Task) -> None:
        """Schedule ``task``, retrying around injected hardware faults.

        Each failed attempt records a fault, charges the lost virtual
        time to the occupied workers, remembers the placement so the
        next attempt prefers a different variant/worker, and delays the
        retry by the policy's exponential backoff.  The retry budget is
        bounded; exhaustion surfaces as UnrecoverableTaskError.
        """
        attempt = 0
        while True:
            if self._scripted_losses:
                self._fire_due_losses(task.ready_time)
            decision = self.scheduler.choose(task, self)
            dbc = self.trace.decisions_by_codelet
            name = task.codelet.name
            dbc[name] = dbc.get(name, 0) + 1
            if attempt:
                rbc = self.trace.retries_by_codelet
                rbc[name] = rbc.get(name, 0) + 1
            if self.events.want_schedule:
                self.events.emit_schedule(task.ready_time, task, decision, attempt)
            try:
                self._schedule(task, decision, attempt)
                if attempt > 0:
                    self.trace.n_tasks_recovered += 1
                    if (
                        task.first_fault_arch is not None
                        and decision.variant.arch.value != task.first_fault_arch
                    ):
                        self.trace.n_fallbacks += 1
                return
            except HardwareFault as fault:
                task.n_faults += 1
                failed = task.failed_on
                if failed is None:
                    failed = task.failed_on = set()
                failed.add((decision.variant.name, decision.anchor.unit_id))
                if task.first_fault_arch is None:
                    task.first_fault_arch = decision.variant.arch.value
                attempt += 1
                if attempt > self.recovery.max_retries:
                    self.trace.n_tasks_lost += 1
                    raise UnrecoverableTaskError(
                        f"task {task.name}: giving up after {attempt} failed "
                        f"attempts (last fault: {fault})",
                        task_id=task.task_id,
                        task_name=task.name,
                        attempts=attempt,
                    ) from fault
                self.trace.n_task_retries += 1
                task.state = TaskState.READY
                task.ready_time = max(
                    task.ready_time,
                    fault.time
                    + self.recovery.backoff(
                        attempt,
                        self._backoff_jitter_u(task.submit_seq, attempt),
                    ),
                )

    def _abort(self, task: Task, t: float) -> None:
        """Mark an unplaceable task as terminated without executing it."""
        task.state = TaskState.DONE
        task.start_time = t
        task.end_time = t
        self._n_completed += 1
        self.trace.n_tasks_aborted += 1
        self._last_end = max(self._last_end, t)
        for op in task.operands:
            _task_done(op.handle, task, op.slot)
        if self._releasing:
            self._settle_releases(task.handles)
        for dependent in task.dependents:
            if dependent.dep_satisfied():
                self._make_ready(dependent, max(t, dependent.earliest_start))

    def _schedule(self, task: Task, decision: Decision, attempt: int = 0) -> None:
        variant = decision.variant
        workers = decision.workers
        node = workers[0].memory_node
        operands = task.operands
        ready_time = task.ready_time
        # gang variants see how many cores they occupy
        if variant.arch.is_gang:
            task.ctx.setdefault("ncores", len(workers))
        # stage operands at the target node (commits transfers); the
        # task's own operands are pinned against eviction.  Fast path:
        # read operands already valid at the node only need a touch and a
        # readiness max — no pin set, no transfer machinery.  Only the
        # remaining ("slow") operands go through _commit_copy /
        # _ensure_capacity; reordering the valid ones ahead of them is
        # observably identical because a touch only folds a max into the
        # LRU clock and every operand is pinned against eviction anyway.
        data_ready = ready_time
        slow: list = []
        invalid = CopyState.INVALID
        for op in operands:
            if op.mode.reads:
                h = op.handle
                if h._states[node] is not invalid:
                    lu = h._last_used
                    if ready_time > lu[node]:
                        lu[node] = ready_time
                    r = h._ready_at[node]
                    if r > data_ready:
                        data_ready = r
                else:
                    slow.append(op)
            elif node != HOST_NODE:
                slow.append(op)
        try:
            if slow:
                pinned = frozenset(op.handle.handle_id for op in operands)
                self._staging_task = task
                try:
                    for op in slow:
                        if op.mode.reads:
                            data_ready = max(
                                data_ready,
                                self._commit_copy(
                                    op.handle,
                                    node,
                                    earliest=ready_time,
                                    pinned=pinned,
                                ),
                            )
                        else:
                            # write-only outputs still need an
                            # allocation on the device
                            data_ready = max(
                                data_ready,
                                self._ensure_capacity(
                                    node, op.handle, ready_time, pinned
                                ),
                            )
                finally:
                    self._staging_task = None
        except TransferFault as fault:
            # staging for this placement is a lost cause: attribute the
            # abort to the task so the recovery loop can place it where
            # the failing link is not needed
            self._fault(
                FaultRecord.make(
                    kind="transfer_abort",
                    time=fault.time,
                    task_id=task.task_id,
                    task_name=task.name,
                    node=node,
                    attempt=attempt,
                    detail=str(fault),
                )
            )
            raise
        states = self._workers
        if len(workers) == 1:
            worker_free = states[workers[0].unit_id].available_at
        else:
            worker_free = max(states[u.unit_id].available_at for u in workers)
        start = ready_time if ready_time > data_ready else data_ready
        if worker_free > start:
            start = worker_free
        raw = variant.predict(task.ctx, workers[0].device)
        noise = self.noise
        # inline the sigma==0 identity (perturb's own short-circuit) so
        # noise-off runs skip the call; negative raw still goes through
        # perturb, which rejects it.  getattr: wrapped noise models
        # (e.g. cluster degradation scaling) need not expose sigma.
        exec_time = (
            raw
            if raw >= 0.0 and getattr(noise, "sigma", None) == 0.0
            else noise.perturb(raw)
        )
        end = start + exec_time
        if self.faults is not None:
            self._inject_exec_fault(task, decision, attempt, start, exec_time)
        # run the real computation now: dependency order is respected
        # because dependents are only scheduled after this completes
        task.chosen_variant = variant
        task.workers = workers
        if self.run_kernels:
            if self._exec_inline:
                try:
                    task.run_kernel()
                except PeppherError:
                    raise
                except Exception as exc:
                    # wrap so _make_ready's abort path keeps the engine
                    # consistent; chain the original for diagnosis
                    raise KernelExecutionError(
                        f"task {task.name}: variant {variant.name!r} raised "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            else:
                self._dispatch_kernel(task)
        avail = self._avail
        for u in workers:
            uid = u.unit_id
            ws = states[uid]
            ws.available_at = end
            ws.assigned_count += 1
            avail[uid] = end
        # apply write effects: the target node becomes the single owner
        for op in operands:
            h = op.handle
            lu = h._last_used
            if end > lu[node]:
                lu[node] = end
            if op.mode.writes:
                h.mark_modified(node, end)
                self._sync_residency(h)
        task.state = TaskState.SCHEDULED
        task.start_time = start
        task.end_time = end
        heapq.heappush(self._events, (end, next(self._event_seq), task))
        ev = self.events
        if ev.want_start:
            ev.emit_start(start, task)

    # -- real-concurrency kernel execution (repro.exec) ----------------------

    def _dispatch_kernel(self, task: Task) -> None:
        """Hand a scheduled task's kernel to the execution backend.

        Data-hazard order: any pending kernel touching one of this
        task's operands is joined first if either side writes, so the
        values this kernel reads are final.  Independent kernels stay
        in flight and genuinely overlap.
        """
        for op in task.operands:
            entries = self._handle_kernels.get(op.handle.handle_id)
            if not entries:
                continue
            for tid, wrote in list(entries):
                if wrote or op.mode.writes:
                    self._join_kernel(tid)
        try:
            fut = self.exec_backend.dispatch_task(task)
        except PeppherError:
            raise
        except Exception as exc:
            raise KernelExecutionError(
                f"task {task.name}: backend {self.exec_backend.name!r} "
                f"failed to dispatch: {type(exc).__name__}: {exc}"
            ) from exc
        self._pending_kernels[task.task_id] = (task, fut)
        for op in task.operands:
            self._handle_kernels.setdefault(op.handle.handle_id, []).append(
                (task.task_id, op.mode.writes)
            )

    def _join_kernel(self, task_id: int) -> None:
        """Wait for one dispatched kernel; record its measurement.

        Exceptions raised inside the kernel (or a broken pool) surface
        here wrapped in :class:`KernelExecutionError` naming the task,
        variant and backend.  Successful joins append to
        :attr:`measurements` and feed the performance model under the
        ``"measured"`` provenance — never the analytical tables, so
        simulated predictions and trace digests are untouched.
        """
        entry = self._pending_kernels.pop(task_id, None)
        if entry is None:
            return
        task, fut = entry
        for op in task.operands:
            lst = self._handle_kernels.get(op.handle.handle_id)
            if lst:
                lst[:] = [e for e in lst if e[0] != task_id]
                if not lst:
                    del self._handle_kernels[op.handle.handle_id]
        variant = task.chosen_variant
        vname = variant.name if variant is not None else "?"
        try:
            m = fut.result()
        except PeppherError:
            raise
        except Exception as exc:
            raise KernelExecutionError(
                f"task {task.name}: variant {vname!r} failed on the "
                f"{self.exec_backend.name!r} backend: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self.measurements.append(m)
        if variant is not None:
            size = float(sum(h.nbytes for h in task.handles))
            self.perf.record(
                task.footprint(),
                variant.name,
                size,
                m.wall_s,
                provenance="measured",
            )

    def _drain_kernels(self) -> None:
        """Join every pending kernel (host-access and barrier points).

        All kernels are joined even if one fails, so operand write-backs
        and measurements are not lost; the first error is re-raised.
        """
        if not self._pending_kernels:
            return
        first: PeppherError | None = None
        for tid in sorted(self._pending_kernels):
            try:
                self._join_kernel(tid)
            except PeppherError as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

    # -- fault injection and recovery ----------------------------------------

    def _fault(self, rec: FaultRecord) -> FaultRecord:
        """Record one injected fault and emit the matching event."""
        rec = self.trace.record_fault(rec)
        self.events.emit_fault(rec.time, rec)
        return rec

    def _inject_exec_fault(
        self,
        task: Task,
        decision: Decision,
        attempt: int,
        start: float,
        exec_time: float,
    ) -> None:
        """Draw faults for one execution attempt; raise if one strikes.

        Permanent device loss dominates transient kernel faults.  A
        scripted loss before the attempt's start is detected at dispatch
        (``start``); a loss inside the window surfaces when it happens.
        """
        assert self.faults is not None
        end = start + exec_time
        for unit in decision.workers:
            t_loss = self.faults.device_lost_at(unit.unit_id)
            if t_loss is None and unit.is_gpu:
                frac = self.faults.device_loss(
                    unit.unit_id, task.submit_seq, attempt
                )
                if frac is not None:
                    t_loss = start + frac * exec_time
            if t_loss is None or t_loss >= end:
                continue
            fail_time = max(start, t_loss)
            self._charge_failed_attempt(decision.workers, fail_time)
            self._mark_device_lost(unit, fail_time)
            self._fault(
                FaultRecord.make(
                    kind="device_lost",
                    time=fail_time,
                    task_id=task.task_id,
                    task_name=task.name,
                    worker_ids=(unit.unit_id,),
                    node=unit.memory_node,
                    attempt=attempt,
                    detail=f"unit {unit.unit_id} ({unit.device.name}) lost",
                )
            )
            raise DeviceLostError(
                f"unit {unit.unit_id} ({unit.device.name}) lost at "
                f"t={fail_time:.6f}s during task {task.name}",
                time=fail_time,
            )
        frac = self.faults.kernel_fault(task.submit_seq, attempt)
        if frac is not None:
            fail_time = start + frac * exec_time
            self._charge_failed_attempt(decision.workers, fail_time)
            self._note_worker_fault(decision.anchor, fail_time, task)
            self._fault(
                FaultRecord.make(
                    kind="kernel",
                    time=fail_time,
                    task_id=task.task_id,
                    task_name=task.name,
                    worker_ids=tuple(u.unit_id for u in decision.workers),
                    node=decision.anchor.memory_node,
                    attempt=attempt,
                    detail=f"variant {decision.variant.name!r}",
                )
            )
            raise TransientKernelFault(
                f"task {task.name}: variant {decision.variant.name!r} faulted "
                f"on unit {decision.anchor.unit_id} at t={fail_time:.6f}s",
                time=fail_time,
            )

    def _charge_failed_attempt(
        self, workers: tuple[ProcessingUnit, ...], fail_time: float
    ) -> None:
        """The failed attempt occupied its workers until the fault."""
        for u in workers:
            uid = u.unit_id
            ws = self._workers[uid]
            ws.available_at = max(ws.available_at, fail_time)
            ws.assigned_count += 1
            self._avail[uid] = ws.available_at

    def _backoff_jitter_u(self, task_seq: int, attempt: int) -> float | None:
        """Uniform sample for retry-backoff jitter, keyed by the retry's
        identity (task submission index, attempt) like the fault model's
        own draws — order-independent, so record/replay stays
        byte-identical and zero-jitter policies draw nothing."""
        if self.recovery.backoff_jitter <= 0.0:
            return None
        rng = np.random.default_rng((self._seed, 0xB0FF, task_seq, attempt))
        return float(rng.random())

    def _note_worker_fault(
        self, unit: ProcessingUnit, fail_time: float, task: Task
    ) -> None:
        """Tally a transient fault; blacklist chronically faulty workers
        (never the last usable one — degraded progress beats none).

        Crossing the budget records a ``blacklisted`` fault naming the
        triggering task, so the trace checker can verify that no
        placement decided after this moment uses the retired worker.
        """
        n = self._worker_faults.get(unit.unit_id, 0) + 1
        self._worker_faults[unit.unit_id] = n
        if (
            n >= self.recovery.blacklist_after
            and unit.unit_id not in self._blacklisted
            and any(u.unit_id != unit.unit_id for u in self.usable_units)
        ):
            self._blacklisted.add(unit.unit_id)
            self.trace.blacklisted_workers.add(unit.unit_id)
            self._retire_worker(unit)
            self._fault(
                FaultRecord.make(
                    kind="blacklisted",
                    time=fail_time,
                    task_id=task.task_id,
                    task_name=task.name,
                    worker_ids=(unit.unit_id,),
                    node=unit.memory_node,
                    detail=f"unit {unit.unit_id} blacklisted after "
                    f"{n} transient faults",
                )
            )

    def _retire_worker(self, unit: ProcessingUnit) -> None:
        """Drop a lost or blacklisted worker from the usable state and
        the feasible-decision cache built on it."""
        uid = unit.unit_id
        self.usable_units = tuple(u for u in self.usable_units if u.unit_id != uid)
        self._usable_gang = tuple(u for u in self._usable_gang if u.unit_id != uid)
        self.candidate_cache.clear()

    def _mark_device_lost(self, unit: ProcessingUnit, t: float) -> None:
        """Graceful degradation after permanent device loss: retire the
        worker and invalidate the dead node's replicas (sole-owner copies
        re-source from the host shadow via the coherence protocol)."""
        self._lost_workers.add(unit.unit_id)
        self.trace.lost_workers.add(unit.unit_id)
        self._retire_worker(unit)
        node = unit.memory_node
        if node == HOST_NODE:
            return
        for handle in list(self._resident[node].values()):
            for h in [handle, *handle.children]:
                if h.recover_from_node_loss(node, t):
                    self._fault(
                        FaultRecord.make(
                            kind="replica_lost",
                            time=t,
                            node=node,
                            handle_id=h.handle_id,
                            handle_name=h.name,
                            detail="sole replica on lost device; "
                            "re-sourced from host",
                        )
                    )
            self._sync_residency(handle)

    def _fire_due_losses(self, now: float) -> None:
        """Apply scripted device losses whose time has passed, so neither
        scheduling nor host-side transfers use a dead device."""
        if self.faults is None or not self.faults.device_loss_at:
            return
        for unit_id, t_loss in sorted(self.faults.device_loss_at.items()):
            if t_loss <= now and unit_id not in self._lost_workers:
                unit = self.machine.unit(unit_id)
                self._mark_device_lost(unit, t_loss)
                self._fault(
                    FaultRecord.make(
                        kind="device_lost",
                        time=t_loss,
                        worker_ids=(unit_id,),
                        node=unit.memory_node,
                        detail=f"unit {unit_id} ({unit.device.name}) lost",
                    )
                )

    def _process_events(self) -> None:
        events = self._events
        if not events:
            return
        pop = heapq.heappop
        complete = self._complete
        while events:
            end, _, task = pop(events)
            complete(task, end)

    def _complete(self, task: Task, end: float) -> None:
        task.state = TaskState.DONE
        self._n_completed += 1
        if end > self._last_end:
            self._last_end = end
        variant = task.chosen_variant
        assert variant is not None
        workers = task.workers
        start_time = task.start_time
        end_time = task.end_time
        # one pass over the operands: total bytes plus read/written ids
        # (and the task leaves the ordering state of every handle it
        # touched: a later access needs only its id and end time)
        size = 0
        reads: list[int] = []
        writes: list[int] = []
        for op in task.operands:
            h = op.handle
            size += h.nbytes
            mode = op.mode
            if mode.reads:
                reads.append(h.handle_id)
            if mode.writes:
                writes.append(h.handle_id)
            _task_done(h, task, op.slot)
        duration = end_time - start_time
        self.perf.record(task.footprint(), variant.name, float(size), duration)
        if len(workers) == 1:
            u0 = workers[0]
            worker_ids: tuple[int, ...] = self._solo_ids[u0.unit_id]
            energy = duration * u0.device.busy_watts
        else:
            worker_ids = tuple(u.unit_id for u in workers)
            energy = duration * sum(u.device.busy_watts for u in workers)
        # column-direct append: values in TaskRecord field order minus the
        # trailing seq (add_task stamps it); no record object is built
        # unless a subscriber asks for one, and the id lists go in as
        # built (the trace copies them into flat typed columns)
        trace = self.trace
        trace.add_task(
            (
                task.task_id,
                task._name,  # "" for a default name: the trace derives it
                task.codelet.name,
                variant.name,
                variant.arch.value,
                worker_ids,
                task.submit_time,
                task.ready_time,
                start_time,
                end_time,
                energy,
                workers[0].memory_node,
                reads,
                writes,
                task.dep_ids,
                task.submit_seq,
            )
        )
        ev = self.events
        if ev.want_complete:
            ev.emit_complete(end, task, trace.tasks[-1])
        if self._releasing:
            self._settle_releases(task.handles)
        for dependent in task.dependents:
            if dependent.dep_satisfied():
                self._make_ready(dependent, max(end, dependent.earliest_start))

    # -- transfers -----------------------------------------------------------

    def _commit_copy(
        self,
        handle: DataHandle,
        node: int,
        earliest: float,
        pinned: frozenset[int] | None = None,
    ) -> float:
        """Ensure a valid copy of ``handle`` at ``node``; commit transfers.

        Returns the virtual time the copy is (or becomes) valid.  Lazy:
        no transfer happens if the node already holds a valid copy.
        Hops and DMA channels come from :func:`copy_route`: a
        device-to-device copy first commits its host leg.  When the
        target device memory is full, least-recently-used resident
        copies are evicted first (``pinned`` handles — the current
        task's operands — are exempt).
        """
        if handle.is_valid(node):
            handle.touch(node, earliest)
            return handle.ready_at(node)
        if pinned is None:
            pinned = frozenset({handle.handle_id})
        route = self.route(handle.pick_source(), node)
        if len(route) > 1:
            # stage through host, then continue host -> node
            t_host = self._commit_copy(handle, HOST_NODE, earliest, pinned)
            earliest = max(earliest, t_host)
        src, _, channel = route[-1]
        earliest = self._ensure_capacity(node, handle, earliest, pinned)
        dur = self.transfer_time(src, node, handle.nbytes)
        resend = 0
        while True:
            # every attempt holds the channel for the whole copy
            start = max(
                earliest,
                handle.ready_at(src),
                self._link_free.get(channel, 0.0),
            )
            end = start + dur
            self._occupy_link(channel, end)
            if (
                self.faults is None
                or handle.nbytes == 0
                or not self.faults.transfer_fault(next(self._transfer_draws))
            ):
                break
            # corrupted on the wire: the attempt's time is spent and the
            # copy must be resent
            direction = DIRECTIONS[transfer_direction(src, node)]
            self._fault(
                FaultRecord.make(
                    kind="transfer",
                    time=end,
                    node=node,
                    handle_id=handle.handle_id,
                    handle_name=handle.name,
                    attempt=resend,
                    detail=f"{direction} copy node {src} -> {node} corrupted",
                )
            )
            resend += 1
            if resend > self.recovery.max_transfer_retries:
                raise TransferFault(
                    f"handle {handle.name!r}: {direction} copy to node {node} "
                    f"still failing after {resend} attempts",
                    time=end,
                )
            earliest = end
        handle.mark_shared(node, end)
        handle.touch(node, end)
        self._sync_residency(handle)
        trace = self.trace
        trace.add_transfer(
            (
                handle.handle_id,
                handle.name,
                src,
                node,
                handle.nbytes,
                start,
                end,
            )
        )
        ev = self.events
        if ev.want_transfer:
            ev.emit_transfer(end, trace.transfers[-1], self._staging_task)
        return end

    # -- device-memory management (LRU eviction) -----------------------------

    def _sync_residency(self, handle: DataHandle) -> None:
        """Reconcile the per-node residency tables with a handle's state.

        Only top-level handles are tracked: partition children are views
        into their parent's allocation.  A handle given to
        :meth:`unregister_submit` stays tracked until its release.
        """
        if handle.parent is not None:
            return
        hid = handle.handle_id
        states = handle._states
        invalid = CopyState.INVALID
        for node in self._device_nodes:
            resident = self._resident[node]
            present = hid in resident
            wanted = states[node] is not invalid
            if wanted and not present:
                resident[hid] = handle
                self._node_usage[node] += handle.nbytes
            elif present and not wanted:
                del resident[hid]
                self._node_usage[node] -= handle.nbytes

    def _ensure_capacity(
        self, node: int, handle: DataHandle, when: float, pinned: frozenset[int]
    ) -> float:
        """Make room for ``handle`` at ``node``, evicting LRU copies.

        Returns the (possibly later) time the allocation can proceed —
        evicting a sole-owner copy costs a flush transfer home.
        """
        capacity = self._node_capacity[node]
        if capacity is None or node == HOST_NODE or handle.parent is not None:
            return when
        if handle.handle_id in self._resident[node]:
            return when  # already allocated there
        need = handle.nbytes
        if need > capacity:
            raise RuntimeSystemError(
                f"handle {handle.name!r} ({need} bytes) exceeds node {node} "
                f"memory ({capacity} bytes); partition it first"
            )
        t = when
        while self._node_usage[node] + need > capacity:
            victims = [
                h
                for hid, h in self._resident[node].items()
                if hid not in pinned and not h.partitioned
            ]
            if not victims:
                raise RuntimeSystemError(
                    f"node {node} out of memory: {self._node_usage[node]} bytes "
                    f"resident, all pinned, {need} more needed"
                )
            victim = min(victims, key=lambda h: h.last_used(node))
            flushed = False
            if victim.state(node) is CopyState.MODIFIED:
                # sole owner: write it home before dropping it
                t = max(t, self._commit_copy(victim, HOST_NODE, t, pinned))
                flushed = True
            victim.invalidate(node)
            self._sync_residency(victim)
            rec = self.trace.record_eviction(
                EvictionRecord.make(
                    handle_id=victim.handle_id,
                    handle_name=victim.name,
                    node=node,
                    nbytes=victim.nbytes,
                    time=t,
                    flushed=flushed,
                )
            )
            if self.events.want_evict:
                self.events.emit_evict(t, rec)
        return t

    def _occupy_link(self, channel: tuple[int, str], until: float) -> None:
        self._link_free[channel] = max(
            self._link_free.get(channel, 0.0), until
        )


def _task_done(handle: DataHandle, task: Task, slot: int) -> None:
    """``task``, which accessed ``handle`` at reader ``slot`` (-1 for a
    write), finished: a :class:`DoneTask` replaces it as the last
    writer, and it leaves the readers, of ``handle`` and of every child
    partitioned off since, which copied that ordering state."""
    if handle.last_writer is task:
        handle.last_writer = DoneTask(task.task_id, task.end_time)
    handle.reader_done(task, slot)
    for child in handle.children:
        _task_done(child, task, slot)


def _pending(handle: DataHandle) -> bool:
    """Whether a task submitted on ``handle`` has yet to complete."""
    tasks = (handle.last_writer, *handle.pending_readers.values())
    return any(t is not None and t.state is not TaskState.DONE for t in tasks)
