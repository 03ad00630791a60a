"""Trace invariant checker: replay a finished execution trace against
the machine description and assert it is physically and causally legal.

The checker consumes only recorded artifacts — an
:class:`~repro.runtime.stats.ExecutionTrace` plus either a live
:class:`~repro.hw.description.Machine` or the
:class:`~repro.runtime.trace_export.MachineInfo` summary embedded in
saved trace files — so it can validate a run after the fact, in another
process, or from ``python -m repro.check trace.json``.

Checked invariants
------------------
- **timeline sanity**: every time stamp is finite and non-negative;
  ``submit <= ready <= start <= end`` per task, ``start <= end`` per
  transfer; recorded nodes/workers exist on the machine.
- **worker exclusivity**: no two tasks overlap on one processing unit
  (gang tasks occupy every listed worker).
- **link exclusivity**: transfers serialize per DMA channel, as
  :func:`~repro.hw.description.copy_route` names them — one channel per
  (device link, direction) for duplex links, one shared by both
  directions otherwise — and each recorded copy is a single hop.
- **dependencies**: a task starts no earlier than every dependency's
  end, and dependencies were submitted first.
- **coherence**: a time-ordered sweep over the container state machine —
  every read (task operand, transfer source, host acquire) sees a copy
  made valid by an earlier transfer, write, or recovery event and not
  invalidated since; evictions drop an actually-present copy and never
  the last one.
- **conservation**: submitted = completed + aborted; retries/recoveries/
  losses are mutually consistent; every completed request maps onto a
  completed task with matching times.
- **fault path**: a retried task's attempts are non-overlapping in time
  (fault times increase with the attempt index and the final successful
  attempt starts after the last fault), and a blacklisted worker
  receives no placements decided after the blacklist event.
- **recording**: sequence stamps are unique, dense and per-stream
  monotone.

Violations are collected as structured
:class:`~repro.errors.InvariantViolation` values naming the rule and the
event ids involved; :func:`assert_trace_legal` raises the first one.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import Iterable

from repro.errors import InvariantViolation
from repro.hw.description import HOST_NODE, Machine, copy_route
from repro.runtime.stats import (
    ACCESS_KINDS,
    AccessRecord,
    EvictionRecord,
    ExecutionTrace,
    FAULT_KINDS,
    FaultRecord,
    TaskRecord,
    TransferRecord,
)
from repro.runtime.trace_export import MachineInfo

#: slack for float comparisons between independently computed times
EPS = 1e-9

# coherence sweep phases: at equal times, copies become valid before
# they are read, and reads happen before invalidations take effect
_CREATE, _CONSUME, _INVALIDATE = 0, 1, 2


class TraceChecker:
    """One checking pass over a finished trace.

    Use :func:`check_trace` / :func:`assert_trace_legal` instead of
    instantiating this directly unless you need the intermediate state.
    """

    def __init__(
        self, trace: ExecutionTrace, machine: "Machine | MachineInfo"
    ) -> None:
        self.trace = trace
        self.info = MachineInfo.of(machine)
        self.units = {u.unit_id: u for u in self.info.units}
        self.violations: list[InvariantViolation] = []
        # each record kind in RECORD_KINDS order, built once: every
        # rule reads these lists
        (
            self.tasks,
            self.transfers,
            self.evictions,
            self.faults,
            self.requests,
            self.accesses,
        ) = (list(getattr(trace, kind)) for kind in trace.RECORD_KINDS)
        self._tasks_by_id = {rec.task_id: rec for rec in self.tasks}

    # -- entry point --------------------------------------------------------

    def run(self) -> list[InvariantViolation]:
        for check in (
            self._check_seq_stamps,
            self._check_timelines,
            self._check_worker_exclusivity,
            self._check_link_exclusivity,
            self._check_dependencies,
            self._check_conservation,
            self._check_coherence,
            self._check_fault_path,
        ):
            check()
        return self.violations

    def _fail(self, rule: str, detail: str, events: Iterable = ()) -> None:
        self.violations.append(InvariantViolation(rule, detail, tuple(events)))

    # -- recording ----------------------------------------------------------

    def _check_seq_stamps(self) -> None:
        seen: dict[int, str] = {}
        streams = {
            "task": self.tasks,
            "transfer": self.transfers,
            "eviction": self.evictions,
            "access": self.accesses,
            "fault": self.faults,
        }
        for stream, records in streams.items():
            prev = -1
            for i, rec in enumerate(records):
                label = f"{stream}@seq{rec.seq}"
                if rec.seq < 0 or rec.seq >= self.trace.next_seq:
                    self._fail(
                        "recording.seq-range",
                        f"{stream} record {i} has seq {rec.seq}, expected "
                        f"0 <= seq < {self.trace.next_seq}",
                        (label,),
                    )
                    continue
                if rec.seq in seen:
                    self._fail(
                        "recording.seq-duplicate",
                        f"seq {rec.seq} stamped on both {seen[rec.seq]} "
                        f"and {label}",
                        (seen[rec.seq], label),
                    )
                seen[rec.seq] = label
                if rec.seq <= prev:
                    self._fail(
                        "recording.seq-monotone",
                        f"{stream} stream goes back in recording order "
                        f"(seq {prev} then {rec.seq})",
                        (label,),
                    )
                prev = rec.seq

    # -- timeline sanity ----------------------------------------------------

    def _bad_time(self, value: float) -> bool:
        return not math.isfinite(value) or value < -EPS

    def _check_timelines(self) -> None:
        n_nodes = self.info.n_memory_nodes
        for rec in self.tasks:
            ev = (f"task#{rec.task_id}",)
            stamps = (
                rec.submit_time,
                rec.ready_time,
                rec.start_time,
                rec.end_time,
            )
            if any(map(self._bad_time, stamps)):
                self._fail(
                    "timeline.task-times",
                    f"task {rec.name!r} has a negative or non-finite time "
                    f"stamp {stamps}",
                    ev,
                )
                continue
            if not (
                rec.submit_time
                <= rec.ready_time + EPS
                and rec.ready_time <= rec.start_time + EPS
                and rec.start_time <= rec.end_time + EPS
            ):
                self._fail(
                    "timeline.task-order",
                    f"task {rec.name!r} violates submit <= ready <= start "
                    f"<= end: {stamps}",
                    ev,
                )
            if not rec.worker_ids:
                self._fail(
                    "timeline.task-workers",
                    f"task {rec.name!r} completed with no workers",
                    ev,
                )
            for w in rec.worker_ids:
                if w not in self.units:
                    self._fail(
                        "timeline.task-workers",
                        f"task {rec.name!r} ran on unknown worker {w}",
                        ev,
                    )
            if rec.worker_ids and rec.worker_ids[0] in self.units:
                anchor_node = self.units[rec.worker_ids[0]].memory_node
                if rec.node != anchor_node:
                    self._fail(
                        "timeline.task-node",
                        f"task {rec.name!r} records node {rec.node} but its "
                        f"anchor worker {rec.worker_ids[0]} lives on node "
                        f"{anchor_node}",
                        ev,
                    )
        for rec in self.transfers:
            ev = (f"transfer@seq{rec.seq}", f"handle#{rec.handle_id}")
            if self._bad_time(rec.start_time) or self._bad_time(rec.end_time):
                self._fail(
                    "timeline.transfer-times",
                    f"transfer of {rec.handle_name!r} has a negative or "
                    f"non-finite time stamp "
                    f"({rec.start_time}, {rec.end_time})",
                    ev,
                )
                continue
            if rec.start_time > rec.end_time + EPS:
                self._fail(
                    "timeline.transfer-order",
                    f"transfer of {rec.handle_name!r} ends before it starts "
                    f"({rec.start_time} > {rec.end_time})",
                    ev,
                )
            if rec.nbytes < 0:
                self._fail(
                    "timeline.transfer-bytes",
                    f"transfer of {rec.handle_name!r} moves {rec.nbytes} bytes",
                    ev,
                )
            if rec.src_node == rec.dst_node:
                self._fail(
                    "timeline.transfer-nodes",
                    f"transfer of {rec.handle_name!r} copies node "
                    f"{rec.src_node} onto itself",
                    ev,
                )
            for node in (rec.src_node, rec.dst_node):
                if not 0 <= node < n_nodes:
                    self._fail(
                        "timeline.transfer-nodes",
                        f"transfer of {rec.handle_name!r} touches unknown "
                        f"memory node {node}",
                        ev,
                    )
        for rec in self.evictions:
            ev = (f"eviction@seq{rec.seq}", f"handle#{rec.handle_id}")
            if self._bad_time(rec.time):
                self._fail(
                    "timeline.eviction-time",
                    f"eviction of {rec.handle_name!r} at invalid time "
                    f"{rec.time}",
                    ev,
                )
            if rec.node == HOST_NODE or not 0 <= rec.node < n_nodes:
                self._fail(
                    "timeline.eviction-node",
                    f"eviction of {rec.handle_name!r} from invalid node "
                    f"{rec.node} (host memory is never evicted)",
                    ev,
                )
        for rec in self.accesses:
            ev = (f"access@seq{rec.seq}", f"handle#{rec.handle_id}")
            if self._bad_time(rec.time):
                self._fail(
                    "timeline.access-time",
                    f"{rec.kind} of {rec.handle_name!r} at invalid time "
                    f"{rec.time}",
                    ev,
                )
            if rec.kind not in ACCESS_KINDS:
                self._fail(
                    "timeline.access-kind",
                    f"unknown access kind {rec.kind!r}",
                    ev,
                )
        for rec in self.faults:
            ev = (f"fault@seq{rec.seq}",)
            if self._bad_time(rec.time):
                self._fail(
                    "timeline.fault-time",
                    f"{rec.kind} fault at invalid time {rec.time}",
                    ev,
                )
            if rec.kind not in FAULT_KINDS:
                self._fail(
                    "timeline.fault-kind",
                    f"unknown fault kind {rec.kind!r}",
                    ev,
                )

    # -- exclusivity --------------------------------------------------------

    def _check_worker_exclusivity(self) -> None:
        busy: dict[int, list[TaskRecord]] = {}
        for rec in self.tasks:
            for w in set(rec.worker_ids):
                busy.setdefault(w, []).append(rec)
        self._check_overlaps(
            "exclusivity.worker-overlap",
            busy,
            lambda w, prev, cur: (
                f"tasks {prev.name!r} [{prev.start_time:.9f}, "
                f"{prev.end_time:.9f}] and {cur.name!r} "
                f"[{cur.start_time:.9f}, {cur.end_time:.9f}] overlap "
                f"on worker {w}",
                (f"task#{prev.task_id}", f"task#{cur.task_id}"),
            ),
        )

    def _check_link_exclusivity(self) -> None:
        channels: dict[tuple[int, str], list[TransferRecord]] = {}
        for rec in self.transfers:
            # a recorded copy is one hop of its copy_route (a self-copy,
            # with no hop, is timeline.transfer-nodes' to report)
            route = copy_route(rec.src_node, rec.dst_node, self.info.duplex)
            if len(route) > 1:
                self._fail(
                    "exclusivity.link-route",
                    f"transfer of {rec.handle_name!r} goes device-to-device "
                    f"(node {rec.src_node} -> {rec.dst_node}) but the "
                    f"machine has no peer DMA; copies stage through host",
                    (f"transfer@seq{rec.seq}", f"handle#{rec.handle_id}"),
                )
            elif route:
                channels.setdefault(route[0][2], []).append(rec)
        self._check_overlaps(
            "exclusivity.link-overlap",
            channels,
            lambda channel, prev, cur: (
                f"transfers of {prev.handle_name!r} "
                f"[{prev.start_time:.9f}, {prev.end_time:.9f}] and "
                f"{cur.handle_name!r} [{cur.start_time:.9f}, "
                f"{cur.end_time:.9f}] overlap on link {channel[0]} "
                f"({channel[1]})",
                (f"transfer@seq{prev.seq}", f"transfer@seq{cur.seq}"),
            ),
        )

    def _check_overlaps(self, rule: str, groups: dict, describe) -> None:
        """Report ``rule`` for each pair of neighbours that overlap in
        time once a group's records are sorted by (start, end); groups
        in key order, ``describe(key, prev, cur)`` gives the detail and
        the event ids."""
        for key, recs in sorted(groups.items()):
            recs.sort(key=attrgetter("start_time", "end_time"))
            for prev, cur in zip(recs, recs[1:]):
                if cur.start_time < prev.end_time - EPS:
                    self._fail(rule, *describe(key, prev, cur))

    # -- dependencies -------------------------------------------------------

    def _check_dependencies(self) -> None:
        for rec in self.tasks:
            for dep_id in rec.deps:
                dep = self._tasks_by_id.get(dep_id)
                if dep is None:
                    # a dependency without a record must have been aborted
                    if self.trace.n_tasks_aborted == 0:
                        self._fail(
                            "dependency.unknown",
                            f"task {rec.name!r} depends on task {dep_id} "
                            f"which never completed (and nothing was aborted)",
                            (f"task#{rec.task_id}", f"task#{dep_id}"),
                        )
                    continue
                if rec.start_time < dep.end_time - EPS:
                    self._fail(
                        "dependency.start-before-dep",
                        f"task {rec.name!r} starts at {rec.start_time:.9f} "
                        f"before its dependency {dep.name!r} ends at "
                        f"{dep.end_time:.9f}",
                        (f"task#{rec.task_id}", f"task#{dep_id}"),
                    )
                if (
                    rec.submit_seq >= 0
                    and dep.submit_seq >= 0
                    and dep.submit_seq >= rec.submit_seq
                ):
                    self._fail(
                        "dependency.submit-order",
                        f"task {rec.name!r} (submit {rec.submit_seq}) "
                        f"depends on {dep.name!r} (submit {dep.submit_seq}) "
                        f"which was submitted after it",
                        (f"task#{rec.task_id}", f"task#{dep_id}"),
                    )

    # -- conservation -------------------------------------------------------

    def _check_conservation(self) -> None:
        tr = self.trace
        if tr.n_submitted != len(tr.tasks) + tr.n_tasks_aborted:
            self._fail(
                "conservation.tasks",
                f"{tr.n_submitted} tasks submitted but {len(tr.tasks)} "
                f"completed + {tr.n_tasks_aborted} aborted",
            )
        if tr.n_tasks_lost > tr.n_tasks_aborted:
            self._fail(
                "conservation.lost-tasks",
                f"{tr.n_tasks_lost} tasks lost to faults but only "
                f"{tr.n_tasks_aborted} aborted",
            )
        if tr.n_tasks_recovered > tr.n_task_retries:
            self._fail(
                "conservation.retries",
                f"{tr.n_tasks_recovered} tasks recovered with only "
                f"{tr.n_task_retries} retries",
            )
        seen_submits: dict[int, TaskRecord] = {}
        for rec in self.tasks:
            if rec.submit_seq < 0:
                continue
            other = seen_submits.get(rec.submit_seq)
            if other is not None:
                self._fail(
                    "conservation.double-completion",
                    f"submission {rec.submit_seq} completed twice "
                    f"({other.name!r} and {rec.name!r})",
                    (f"task#{other.task_id}", f"task#{rec.task_id}"),
                )
            seen_submits[rec.submit_seq] = rec
        n_completed = sum(1 for r in self.requests if r.completed)
        if n_completed + tr.n_shed + tr.n_failed_requests != tr.n_requests:
            self._fail(
                "conservation.requests",
                f"{tr.n_requests} requests != {n_completed} completed + "
                f"{tr.n_shed} shed + {tr.n_failed_requests} failed",
            )
        for rec in self.requests:
            ev = (f"request#{rec.req_id}",)
            if rec.shed:
                if rec.task_id is not None:
                    self._fail(
                        "conservation.shed-request",
                        f"shed request {rec.req_id} of tenant "
                        f"{rec.tenant!r} carries task {rec.task_id}",
                        ev + (f"task#{rec.task_id}",),
                    )
                continue
            if rec.failed:
                if rec.task_id in self._tasks_by_id:
                    self._fail(
                        "conservation.request-task",
                        f"failed request {rec.req_id} of tenant "
                        f"{rec.tenant!r} maps to task {rec.task_id}, "
                        "which completed",
                        ev + (f"task#{rec.task_id}",),
                    )
                continue
            if rec.task_id is None:
                self._fail(
                    "conservation.request-task",
                    f"completed request {rec.req_id} of tenant "
                    f"{rec.tenant!r} has no task",
                    ev,
                )
                continue
            task = self._tasks_by_id.get(rec.task_id)
            if task is None:
                self._fail(
                    "conservation.request-task",
                    f"request {rec.req_id} of tenant {rec.tenant!r} maps to "
                    f"task {rec.task_id} which never completed",
                    ev + (f"task#{rec.task_id}",),
                )
                continue
            if (
                abs(rec.start_time - task.start_time) > EPS
                or abs(rec.end_time - task.end_time) > EPS
            ):
                self._fail(
                    "conservation.request-times",
                    f"request {rec.req_id} of tenant {rec.tenant!r} records "
                    f"[{rec.start_time:.9f}, {rec.end_time:.9f}] but its "
                    f"task {task.name!r} ran [{task.start_time:.9f}, "
                    f"{task.end_time:.9f}]",
                    ev + (f"task#{rec.task_id}",),
                )

    # -- fault path ---------------------------------------------------------

    #: fault kinds marking one failed *execution attempt* of a task
    #: ("transfer" is an in-place retransmission, not a lost attempt)
    _ATTEMPT_FAULTS = ("kernel", "device_lost", "transfer_abort")

    def _check_fault_path(self) -> None:
        """Retry and blacklist discipline along the fault-recovery path.

        Attempts of one task must be sequential: each retry is placed
        after the previous attempt's fault (plus backoff), so fault
        times are non-decreasing in the attempt index and the final
        successful attempt starts no earlier than the last fault.  A
        blacklisted worker must receive no placement decided after the
        blacklist moment; placement order is host-side, so the check
        uses the triggering task's submission index (every later-
        submitted task is placed after the blacklist) together with the
        virtual ready time.
        """
        by_task: dict[int, list[FaultRecord]] = {}
        for rec in self.faults:
            if rec.kind in self._ATTEMPT_FAULTS and rec.task_id is not None:
                by_task.setdefault(rec.task_id, []).append(rec)
        for task_id, recs in sorted(by_task.items()):
            recs.sort(key=lambda r: (r.attempt, r.time))
            for a, b in zip(recs, recs[1:]):
                if b.attempt == a.attempt:
                    self._fail(
                        "fault.attempt-duplicate",
                        f"task {a.task_name!r} records two attempt-"
                        f"{a.attempt} faults ({a.kind}, {b.kind})",
                        (f"fault@seq{a.seq}", f"fault@seq{b.seq}"),
                    )
                    continue
                if b.time < a.time - EPS:
                    self._fail(
                        "fault.attempt-overlap",
                        f"task {a.task_name!r}: attempt {b.attempt} faulted "
                        f"at {b.time:.9f}, before attempt {a.attempt}'s "
                        f"fault at {a.time:.9f} — retried attempts must "
                        f"not overlap in time",
                        (f"fault@seq{a.seq}", f"fault@seq{b.seq}"),
                    )
            final = self._tasks_by_id.get(task_id)
            last = recs[-1]
            if final is not None and final.start_time < last.time - EPS:
                self._fail(
                    "fault.attempt-overlap",
                    f"task {final.name!r}: final attempt starts at "
                    f"{final.start_time:.9f}, before its last fault at "
                    f"{last.time:.9f} — the successful attempt overlaps "
                    f"a failed one",
                    (f"task#{task_id}", f"fault@seq{last.seq}"),
                )
        for rec in self.faults:
            if rec.kind != "blacklisted" or not rec.worker_ids:
                continue
            w = rec.worker_ids[0]
            trigger = (
                self._tasks_by_id.get(rec.task_id)
                if rec.task_id is not None
                else None
            )
            if trigger is not None and w in trigger.worker_ids:
                self._fail(
                    "fault.blacklist-placement",
                    f"task {trigger.name!r} triggered the blacklisting of "
                    f"worker {w} at t={rec.time:.9f} yet its final (post-"
                    f"blacklist) placement still uses that worker",
                    (f"task#{trigger.task_id}", f"fault@seq{rec.seq}"),
                )
            if trigger is None:
                # without the triggering task's submission index the
                # host-side placement order cannot be reconstructed
                # (eager placement runs ahead of virtual time)
                continue
            for t in self.tasks:
                if w not in t.worker_ids or t.ready_time <= rec.time + EPS:
                    continue
                if t.submit_seq <= trigger.submit_seq:
                    continue  # placed before the blacklist was decided
                self._fail(
                    "fault.blacklist-placement",
                    f"worker {w} was blacklisted at t={rec.time:.9f}, but "
                    f"task {t.name!r} (ready {t.ready_time:.9f}) was placed "
                    f"on it afterwards",
                    (f"task#{t.task_id}", f"fault@seq{rec.seq}"),
                )

    # -- coherence ----------------------------------------------------------

    def _check_coherence(self) -> None:
        """Time-ordered sweep over per-(handle, node) copy validity.

        A copy of a handle becomes valid at a node through a completed
        transfer to it, a task writing there, a host write, a partition
        inheriting the parent's copies, or host-shadow recovery after
        device loss; it stops being valid through an eviction, a write
        elsewhere, unregistration, or device loss.  Every read must fall
        on a currently-valid copy whose data is ready by the read time.
        """
        events: list[tuple[float, int, int, str, object]] = []
        for rec in self.tasks:
            for h in set(rec.reads):
                events.append(
                    (rec.start_time, _CONSUME, rec.seq, "task-read", (h, rec))
                )
            for h in set(rec.writes):
                events.append(
                    (rec.end_time, _CREATE, rec.seq, "create", (h, rec.node))
                )
                events.append(
                    (
                        rec.end_time,
                        _INVALIDATE,
                        rec.seq,
                        "keep-only",
                        (h, rec.node),
                    )
                )
        for rec in self.transfers:
            events.append(
                (rec.start_time, _CONSUME, rec.seq, "transfer-src", rec)
            )
            events.append(
                (
                    rec.end_time,
                    _CREATE,
                    rec.seq,
                    "create",
                    (rec.handle_id, rec.dst_node),
                )
            )
        for erec in self.evictions:
            events.append((erec.time, _INVALIDATE, erec.seq, "evict", erec))
        for arec in self.accesses:
            if arec.kind == "acquire":
                if "r" in arec.mode:
                    events.append(
                        (arec.time, _CONSUME, arec.seq, "host-read", arec)
                    )
                if "w" in arec.mode:
                    events.append(
                        (
                            arec.time,
                            _CREATE,
                            arec.seq,
                            "create",
                            (arec.handle_id, HOST_NODE),
                        )
                    )
                    events.append(
                        (
                            arec.time,
                            _INVALIDATE,
                            arec.seq,
                            "keep-only",
                            (arec.handle_id, HOST_NODE),
                        )
                    )
            elif arec.kind == "unregister":
                events.append(
                    (
                        arec.time,
                        _INVALIDATE,
                        arec.seq,
                        "keep-only",
                        (arec.handle_id, HOST_NODE),
                    )
                )
            elif arec.kind == "partition":
                events.append(
                    (arec.time, _CONSUME, arec.seq, "partition", arec)
                )
            elif arec.kind == "unpartition":
                events.append(
                    (
                        arec.time,
                        _CREATE,
                        arec.seq,
                        "create",
                        (arec.handle_id, HOST_NODE),
                    )
                )
                events.append(
                    (arec.time, _INVALIDATE, arec.seq, "unpartition", arec)
                )
        for frec in self.faults:
            if frec.kind == "replica_lost" and frec.handle_id is not None:
                events.append(
                    (
                        frec.time,
                        _CREATE,
                        frec.seq,
                        "create",
                        (frec.handle_id, HOST_NODE),
                    )
                )
            elif frec.kind == "device_lost" and frec.node is not None:
                events.append(
                    (frec.time, _INVALIDATE, frec.seq, "device-lost", frec)
                )
        #: recording seqs at which each (handle, node) copy was created,
        #: for live-order fallbacks where virtual time runs backwards
        #: relative to recording order (eagerly scheduled evictions;
        #: only an eviction reads it)
        created_seq: dict[tuple[int, int], list[int]] = {}
        for _time, _phase, seq, kind, data in events if self.evictions else ():
            if kind == "create":
                created_seq.setdefault(tuple(data), []).append(seq)  # type: ignore[arg-type]
        events.sort(key=itemgetter(0, 1, 2))

        #: per handle: memory node -> time its copy's data is ready
        state: dict[int, dict[int, float]] = {}
        #: per handle: node -> ready time of the *latest* copy ever made
        #: valid there, kept across invalidations.  The engine schedules
        #: eagerly, so a task scheduled early may (legally) read a copy
        #: that a later-scheduled task evicts at an earlier virtual time;
        #: such a read is accepted when a completed transfer/write had
        #: the data ready by the read time, even if since invalidated.
        ever: dict[int, dict[int, float]] = {}

        def valid(handle_id: int) -> dict[int, float]:
            copies = state.get(handle_id)
            if copies is None or handle_id not in ever:
                # data starts host-resident when registered
                ever.setdefault(handle_id, {HOST_NODE: 0.0})
                copies = state.setdefault(handle_id, {HOST_NODE: 0.0})
            return copies

        def was_ready(handle_id: int, node: int, by: float) -> bool:
            avail = ever.get(handle_id, {}).get(node)
            return avail is not None and avail <= by + EPS

        for time, _phase, _seq, kind, data in events:
            if kind == "create":
                handle_id, node = data  # type: ignore[misc]
                valid(handle_id)[node] = time
                ever[handle_id][node] = time
            elif kind == "keep-only":
                handle_id, node = data  # type: ignore[misc]
                copies = valid(handle_id)
                for n in list(copies):
                    if n != node:
                        del copies[n]
            elif kind == "task-read":
                handle_id, rec = data  # type: ignore[misc]
                copies = valid(handle_id)
                ev = (f"task#{rec.task_id}", f"handle#{handle_id}")
                if rec.node not in copies:
                    if not was_ready(handle_id, rec.node, time):
                        self._fail(
                            "coherence.read-invalid",
                            f"task {rec.name!r} reads handle {handle_id} at "
                            f"node {rec.node} where no valid copy exists "
                            f"(valid at {sorted(copies) or 'nowhere'})",
                            ev,
                        )
                elif copies[rec.node] > time + EPS:
                    self._fail(
                        "coherence.read-early",
                        f"task {rec.name!r} starts at {time:.9f} but its "
                        f"operand {handle_id} only becomes ready at node "
                        f"{rec.node} at {copies[rec.node]:.9f} — no "
                        f"completed transfer precedes the read",
                        ev,
                    )
            elif kind == "transfer-src":
                rec = data  # type: ignore[assignment]
                copies = valid(rec.handle_id)
                ev = (f"transfer@seq{rec.seq}", f"handle#{rec.handle_id}")
                if rec.src_node not in copies:
                    if not was_ready(rec.handle_id, rec.src_node, time):
                        self._fail(
                            "coherence.transfer-source",
                            f"transfer of {rec.handle_name!r} reads node "
                            f"{rec.src_node} where no valid copy exists "
                            f"(valid at {sorted(copies) or 'nowhere'})",
                            ev,
                        )
                elif copies[rec.src_node] > time + EPS:
                    self._fail(
                        "coherence.transfer-early",
                        f"transfer of {rec.handle_name!r} starts at "
                        f"{time:.9f} before its source at node "
                        f"{rec.src_node} is ready at "
                        f"{copies[rec.src_node]:.9f}",
                        ev,
                    )
            elif kind == "host-read":
                arec = data  # type: ignore[assignment]
                copies = valid(arec.handle_id)
                ev = (f"access@seq{arec.seq}", f"handle#{arec.handle_id}")
                if HOST_NODE not in copies:
                    self._fail(
                        "coherence.host-read",
                        f"host reads handle {arec.handle_name!r} with no "
                        f"valid host copy (valid at "
                        f"{sorted(copies) or 'nowhere'})",
                        ev,
                    )
                elif copies[HOST_NODE] > time + EPS:
                    self._fail(
                        "coherence.host-read-early",
                        f"host reads handle {arec.handle_name!r} at "
                        f"{time:.9f} before its host copy is ready at "
                        f"{copies[HOST_NODE]:.9f}",
                        ev,
                    )
            elif kind == "evict":
                erec = data  # type: ignore[assignment]
                copies = valid(erec.handle_id)
                ev = (f"eviction@seq{erec.seq}", f"handle#{erec.handle_id}")
                if erec.node not in copies:
                    key = (erec.handle_id, erec.node)
                    if erec.node == HOST_NODE or not any(
                        s < erec.seq for s in created_seq.get(key, ())
                    ):
                        self._fail(
                            "coherence.evict-absent",
                            f"eviction drops handle {erec.handle_name!r} "
                            f"from node {erec.node} where it holds no copy",
                            ev,
                        )
                    continue
                del copies[erec.node]
                if not copies:
                    self._fail(
                        "coherence.evict-last-copy",
                        f"eviction drops the last copy of handle "
                        f"{erec.handle_name!r} (node {erec.node}, "
                        f"{'flushed' if erec.flushed else 'unflushed'})",
                        ev,
                    )
                    copies[HOST_NODE] = time  # keep sweeping
            elif kind == "partition":
                arec = data  # type: ignore[assignment]
                parent = dict(valid(arec.handle_id))
                for child in arec.related:
                    state[child] = dict(parent)
                    ever[child] = dict(ever[arec.handle_id])
            elif kind == "unpartition":
                arec = data  # type: ignore[assignment]
                copies = valid(arec.handle_id)
                for n in list(copies):
                    if n != HOST_NODE:
                        del copies[n]
                for child in arec.related:
                    # children are dead views after the gather
                    state[child] = {}
            elif kind == "device-lost":
                frec = data  # type: ignore[assignment]
                for copies in state.values():
                    copies.pop(frec.node, None)
                    if not copies:
                        # sole replica: the engine re-sources from the
                        # host shadow (recorded as replica_lost faults)
                        copies[HOST_NODE] = time


def check_trace(
    trace: ExecutionTrace, machine: "Machine | MachineInfo"
) -> list[InvariantViolation]:
    """All invariant violations of a finished trace (empty when legal)."""
    return TraceChecker(trace, machine).run()


def assert_trace_legal(
    trace: ExecutionTrace, machine: "Machine | MachineInfo"
) -> None:
    """Raise the first :class:`InvariantViolation` found, if any."""
    violations = check_trace(trace, machine)
    if violations:
        raise violations[0]
