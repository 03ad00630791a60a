"""Lookahead planning: globally optimized composition over DAG windows.

The paper composes greedily — every invocation is placed the moment it
becomes ready, by dmda's per-task minimum-completion rule.  Its direct
follow-up ("Optimized Composition", Kessler & Dastgeer) shows that
*planning whole call sequences* over multi-variant components and smart
containers beats greedy selection, because a per-task optimum happily
ping-pongs an operand over PCIe when keeping it device-resident for the
next consumer would be globally cheaper.

:class:`LookaheadScheduler` (policy name ``"lookahead"``) is a
:class:`~repro.runtime.schedulers.bulk.BulkScheduler`: the engine
buffers up to ``window_size`` submitted tasks and hands the window's DAG
to :meth:`plan_window` before committing any placement.  The planner
runs a beam-pruned dynamic program over joint (variant, worker) choices
in submission order (a valid topological order under sequential data
consistency), scoring each prefix with

- kernel time from the learned performance model (never ground truth —
  the same :meth:`~repro.runtime.schedulers.base.EngineView.predict_exec`
  dmda uses, so warm tuning-store models, ``measured``-provenance
  calibration and analytical history all flow in), and
- modeled PCIe transfer costs seeded from the *current* MSI coherence
  state of every operand, each copy priced by
  :meth:`~repro.runtime.schedulers.base.EngineView.copy_arrival`, the
  walk behind dmda's data-ready estimate too: hop by hop along
  :func:`~repro.hw.description.copy_route`, serialized on the DMA
  channel the engine itself commits it to (a half-duplex link is one
  channel shared by both directions), the plan's own queued copies
  kept in the timeline's link dict.

**Container-aware fusion** (``fusion=True``, the default) threads the
projected residency of intermediates through the plan: when a
producer→consumer pair lands on the same device, the consumer pays no
transfer — the intermediate host round-trip is elided exactly as the
engine's lazy MSI coherence will realize it.  ``fusion=False`` scores
the conservative composition instead (every in-window intermediate is
assumed to materialize on the host before its consumers), which is the
ablation arm of ``experiments/planner.py``.

The planner always simulates a greedy dmda-style baseline under the same
cost model and commits whichever plan has the lower modeled makespan, so
by construction the committed plan's modeled cost never exceeds the
greedy modeled cost (a property the differential suite asserts per
window).  Windows containing any task the model cannot yet price — an
uncalibrated variant, or a ``performance_aware=False`` codelet — are not
planned at all: every task falls back to the inner dmda, which owns the
exploration/calibration semantics.  The same fallback catches tasks that
escape the window (fault-recovery retries on dead placements, stale
plans after a device loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.hw.description import HOST_NODE
from repro.runtime.schedulers.base import (
    Decision,
    EngineView,
    enumerate_candidates,
)
from repro.runtime.schedulers.bulk import BulkScheduler
from repro.runtime.schedulers.dmda import DmdaScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.task import Task

#: strict-improvement margin: the DP plan replaces the greedy baseline
#: only when its modeled makespan is better by more than this (ties keep
#: the dmda-shaped plan, so lookahead never diverges from dmda for free)
_EPS = 1e-12


@dataclass(frozen=True)
class WindowPlan:
    """Planning outcome for one committed window (introspection/tests)."""

    #: tasks in the window
    n_tasks: int
    #: modeled makespan of the committed plan (None for fallback windows)
    planned_makespan: float | None
    #: modeled makespan of the greedy dmda-style baseline
    greedy_makespan: float | None
    #: producer→consumer pairs whose host round-trip the plan elides
    n_fused_edges: int
    #: (task name, variant name, worker ids) per task, in plan order
    decisions: tuple[tuple[str, str, tuple[int, ...]], ...]
    #: True when the window was not plannable (uncalibrated model or
    #: history-less codelet) and every task fell back to the inner dmda
    fallback: bool


class _SimState:
    """One speculative timeline the planner extends task by task.

    Mirrors exactly the engine state a placement commit would mutate:
    per-worker availability, the occupancy of each
    :func:`~repro.hw.description.copy_route` DMA channel, and the
    projected residency (node → ready time) of every handle the window
    touches.
    """

    __slots__ = (
        "avail",
        "link",
        "res",
        "ends",
        "choice",
        "makespan",
        "fused",
        "host_seen",
    )

    def __init__(
        self,
        avail: list[float],
        res: dict[int, dict[int, float]],
    ) -> None:
        self.avail = avail
        self.link: dict[tuple[int, str], float] = {}
        self.res = res
        self.ends: list[float] = []
        self.choice: list[int] = []
        self.makespan = 0.0
        #: (writer plan-index, consumer plan-index) fused edges
        self.fused: list[tuple[int, int]] = []
        #: handle_id -> [host-ready time, writer node, writer plan-index,
        #: host-read-since-write?]
        self.host_seen: dict[int, list] = {}

    def clone(self) -> "_SimState":
        s = _SimState.__new__(_SimState)
        s.avail = list(self.avail)
        s.link = dict(self.link)
        s.res = {hid: dict(nodes) for hid, nodes in self.res.items()}
        s.ends = list(self.ends)
        s.choice = list(self.choice)
        s.makespan = self.makespan
        s.fused = list(self.fused)
        s.host_seen = {hid: list(v) for hid, v in self.host_seen.items()}
        return s


class LookaheadScheduler(BulkScheduler):
    """Window-planning bulk policy (the ``"lookahead"`` name).

    Parameters
    ----------
    window_size:
        Tasks buffered before the engine forces a flush; sync points
        (``wait_for_all``, smart-container accesses, ``unpartition``)
        flush earlier.
    beam_width:
        Speculative timelines kept per planning step.  1 degenerates to
        a greedy pass under the planner's cost model; larger widths
        explore more joint choices at linear cost.
    fusion:
        Thread projected residency of in-window intermediates through
        the plan (elide host round-trips).  ``False`` scores the
        conservative materialize-to-host composition instead.
    calibration_samples:
        Per-(size-bucket, variant) observations required before a task
        counts as plannable; below that the window falls back to the
        inner dmda, which owns exploration (same default as dmda).
    fallback_options:
        Extra keyword arguments for the inner
        :class:`~repro.runtime.schedulers.dmda.DmdaScheduler`.
    """

    name = "lookahead"

    def __init__(
        self,
        window_size: int = 16,
        beam_width: int = 8,
        fusion: bool = True,
        calibration_samples: int = 2,
        fallback_options: dict | None = None,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.window_size = int(window_size)
        self.beam_width = int(beam_width)
        self.fusion = bool(fusion)
        self.calibration_samples = int(calibration_samples)
        self._inner = DmdaScheduler(
            calibration_samples=calibration_samples,
            **dict(fallback_options or {}),
        )
        self._plan: dict[int, Decision] = {}
        #: one record per committed window, in flush order
        self.plans: list[WindowPlan] = []
        # counters (experiments and tests read these)
        self.n_windows = 0
        self.n_planned_windows = 0
        self.n_fallback_windows = 0
        self.n_planned_tasks = 0
        self.n_fallback_tasks = 0
        self.n_fused_edges = 0

    # ------------------------------------------------------------------
    # per-task commit (the engine's choose hot path)
    # ------------------------------------------------------------------

    def choose(self, task: "Task", view: EngineView) -> Decision:
        decision = self._plan.pop(task.task_id, None)
        if decision is not None:
            failed = task.failed_on
            usable = all(
                view.worker_usable(u.unit_id) for u in decision.workers
            )
            if usable and (
                not failed
                or (decision.variant.name, decision.anchor.unit_id)
                not in failed
            ):
                self.n_planned_tasks += 1
                return decision
        # stale plan entry, faulted placement, or a task that escaped
        # the window: dmda decides (and owns exploration accounting)
        self.n_fallback_tasks += 1
        return self._inner.choose(task, view)

    # ------------------------------------------------------------------
    # window planning
    # ------------------------------------------------------------------

    def plan_window(self, tasks: Sequence["Task"], view: EngineView) -> None:
        self.n_windows += 1
        candidates: list[list[Decision]] = []
        plannable = True
        for task in tasks:
            cands = enumerate_candidates(task, view)
            candidates.append(cands)
            if not task.codelet.performance_aware or any(
                not view.is_calibrated(
                    task, d.variant, self.calibration_samples
                )
                for d in cands
            ):
                plannable = False
        if not plannable:
            # calibration phase (or history-less codelets): the inner
            # dmda places every task — identical semantics to running
            # dmda outright, exploration counters included
            self.n_fallback_windows += 1
            self.plans.append(
                WindowPlan(
                    n_tasks=len(tasks),
                    planned_makespan=None,
                    greedy_makespan=None,
                    n_fused_edges=0,
                    decisions=(),
                    fallback=True,
                )
            )
            return

        exec_est = self._exec_estimates(tasks, candidates, view)
        in_deps = self._window_deps(tasks)
        initial = self._initial_state(tasks, view)

        # greedy dmda-style baseline under the identical cost model
        greedy = initial.clone()
        for i, task in enumerate(tasks):
            best_j, best_key = 0, None
            for j, d in enumerate(candidates[i]):
                probe = greedy.clone()
                end = self._apply(
                    probe, i, task, d, exec_est[i][j], in_deps[i], view
                )
                key = (end, d.anchor.unit_id)
                if best_key is None or key < best_key:
                    best_j, best_key = j, key
            self._apply(
                greedy,
                i,
                task,
                candidates[i][best_j],
                exec_est[i][best_j],
                in_deps[i],
                view,
            )
            greedy.choice.append(best_j)

        # beam-pruned DP over joint (variant, worker) choices
        beam = [initial]
        for i, task in enumerate(tasks):
            grown: list[_SimState] = []
            for state in beam:
                for j, d in enumerate(candidates[i]):
                    nxt = state.clone()
                    self._apply(
                        nxt, i, task, d, exec_est[i][j], in_deps[i], view
                    )
                    nxt.choice.append(j)
                    grown.append(nxt)
            grown.sort(
                key=lambda s: (s.makespan, sum(s.avail), tuple(s.choice))
            )
            beam = grown[: self.beam_width]

        best = beam[0]
        chosen = best if best.makespan < greedy.makespan - _EPS else greedy
        self.n_planned_windows += 1
        self.n_fused_edges += len(chosen.fused)
        committed: list[tuple[str, str, tuple[int, ...]]] = []
        for i, task in enumerate(tasks):
            d = candidates[i][chosen.choice[i]]
            self._plan[task.task_id] = d
            committed.append(
                (task.name, d.variant.name, tuple(u.unit_id for u in d.workers))
            )
        self.plans.append(
            WindowPlan(
                n_tasks=len(tasks),
                planned_makespan=chosen.makespan,
                greedy_makespan=greedy.makespan,
                n_fused_edges=len(chosen.fused),
                decisions=tuple(committed),
                fallback=False,
            )
        )

    # ------------------------------------------------------------------
    # cost model internals
    # ------------------------------------------------------------------

    def _exec_estimates(
        self,
        tasks: Sequence["Task"],
        candidates: list[list[Decision]],
        view: EngineView,
    ) -> list[list[float]]:
        """Model-predicted kernel seconds per (task, candidate)."""
        out: list[list[float]] = []
        for task, cands in zip(tasks, candidates):
            row = []
            for d in cands:
                est = view.predict_exec(task, d.variant, d.anchor)
                assert est is not None  # plannable ⇒ calibrated
                row.append(est)
            out.append(row)
        return out

    @staticmethod
    def _window_deps(tasks: Sequence["Task"]) -> list[tuple[int, ...]]:
        """In-window dependency indices per task (submission order)."""
        index = {t.task_id: i for i, t in enumerate(tasks)}
        return [
            tuple(index[d] for d in t.dep_ids if d in index) for t in tasks
        ]

    @staticmethod
    def _initial_state(
        tasks: Sequence["Task"], view: EngineView
    ) -> _SimState:
        """Seed the simulation from live engine state: worker clocks and
        the committed MSI residency of every window operand."""
        avail = list(view.worker_available_times())
        res: dict[int, dict[int, float]] = {}
        for task in tasks:
            for op in task.operands:
                h = op.handle
                if h.handle_id not in res:
                    res[h.handle_id] = {
                        n: h.ready_at(n) for n in h.valid_nodes()
                    }
        return _SimState(avail, res)

    def _apply(
        self,
        state: _SimState,
        i: int,
        task: "Task",
        decision: Decision,
        exec_s: float,
        deps: tuple[int, ...],
        view: EngineView,
    ) -> float:
        """Extend ``state`` with one placement; returns the modeled end."""
        node = decision.anchor.memory_node
        ready = task.earliest_start
        ends = state.ends
        for j in deps:
            e = ends[j]
            if e > ready:
                ready = e
        data_ready = ready
        res = state.res
        for op in task.operands:
            if not op.mode.reads:
                continue
            h = op.handle
            hid = h.handle_id
            rmap = res[hid]
            seen = state.host_seen.get(hid)
            if not self.fusion and seen is not None:
                # conservative composition: the in-window intermediate
                # materializes on the host before any consumer
                t = seen[0]
                if node != HOST_NODE:
                    t = t + view.transfer_time(HOST_NODE, node, h.nbytes)
                if t > data_ready:
                    data_ready = t
                continue
            at_node = rmap.get(node)
            if at_node is not None:
                if at_node > data_ready:
                    data_ready = at_node
                if (
                    self.fusion
                    and node != HOST_NODE
                    and seen is not None
                    and seen[1] == node
                    and not seen[3]
                ):
                    state.fused.append((seen[2], i))
            else:
                # cheapest-ready valid source, host preferred (the
                # engine's pick_source tie-break)
                src, src_ready = HOST_NODE, None
                for n, r in rmap.items():
                    if src_ready is None or r < src_ready:
                        src, src_ready = n, r
                t = view.copy_arrival(
                    src, node, h.nbytes, max(ready, src_ready or 0.0), state.link
                )
                rmap[node] = t  # staged copy becomes SHARED there
                if t > data_ready:
                    data_ready = t
            if node == HOST_NODE and seen is not None:
                seen[3] = True  # an interleaving host reader
        workers = decision.workers
        worker_free = max(state.avail[u.unit_id] for u in workers)
        start = max(ready, data_ready, worker_free)
        end = start + exec_s
        for u in workers:
            state.avail[u.unit_id] = end
        for op in task.operands:
            if op.mode.writes:
                h = op.handle
                # MSI write: the target node becomes the sole owner
                res[h.handle_id] = {node: end}
                # [host-ready time, device node, writer index, host-read?]
                host_t = (
                    end
                    if node == HOST_NODE
                    else end
                    + view.transfer_time(node, HOST_NODE, h.nbytes)
                )
                state.host_seen[h.handle_id] = [host_t, node, i, False]
        ends.append(end)
        if end > state.makespan:
            state.makespan = end
        return end
