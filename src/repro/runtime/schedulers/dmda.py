"""dmda — deque model data aware (StarPU's performance-aware policy).

This is the policy behind the paper's "tool-generated performance-aware"
(TGPA) results: for every ready task it evaluates each feasible
(variant, worker) pair and picks the one with the minimum *expected
completion time*::

    completion = max(worker_free, data_ready) + predicted_exec

where ``data_ready`` includes estimated PCIe transfer time for operands
not yet valid at the target memory node (the "data aware" part) and
``predicted_exec`` comes from the learned performance model
(:mod:`repro.runtime.perfmodel`), never from ground truth.

While a (task-size, variant) combination is uncalibrated — the model has
fewer than ``calibration_samples`` observations — the policy explores:
it deliberately assigns the task to the least-sampled candidate so every
variant quickly accumulates history, mirroring StarPU's calibration
phase.  The ``dm`` variant (``data_aware=False``) ignores transfer costs,
for ablation studies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.schedulers.base import Decision, EngineView, Scheduler, enumerate_candidates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.task import Task


class DmdaScheduler(Scheduler):
    """Minimum-expected-completion-time scheduling with calibration."""

    name = "dmda"

    #: optimisation goals the policy can pursue (the PEPPHER main
    #: descriptor's optimizationGoal maps onto these)
    OBJECTIVES = ("min_exec_time", "min_energy", "min_edp")

    def __init__(
        self,
        data_aware: bool = True,
        calibration_samples: int = 2,
        objective: str = "min_exec_time",
    ) -> None:
        """
        Parameters
        ----------
        data_aware:
            Include estimated transfer time in the completion estimate
            (``True`` = StarPU dmda; ``False`` = StarPU dm).
        calibration_samples:
            Observations required per (size-bucket, variant) before the
            policy trusts the model instead of exploring.
        objective:
            ``min_exec_time`` ranks candidates by expected completion
            time; ``min_energy`` by predicted execution energy
            (exec_estimate x device busy power, still tie-broken by
            completion); ``min_edp`` by the energy-delay product.
        """
        if calibration_samples < 1:
            raise ValueError("calibration_samples must be >= 1")
        if objective not in self.OBJECTIVES:
            raise ValueError(
                f"objective must be one of {self.OBJECTIVES}, got {objective!r}"
            )
        self.data_aware = data_aware
        self.calibration_samples = calibration_samples
        self.objective = objective

    def choose(self, task: "Task", view: EngineView) -> Decision:
        candidates = enumerate_candidates(task, view)

        # --- per-component useHistoryModels off: greedy placement ---------
        if not task.codelet.performance_aware:
            return min(
                candidates,
                key=lambda d: (
                    self.earliest_start(task, d, view),
                    d.anchor.unit_id,
                ),
            )

        # The model answers per (task, variant), and a variant repeats
        # across its workers' candidates: price each variant once, at its
        # first candidate.  Keyed by id: ImplVariant is unhashable.
        first: dict[int, Decision] = {}
        for d in candidates:
            first.setdefault(id(d.variant), d)

        # --- calibration: explore least-sampled variants first ------------
        # A variant counts as calibrated with either enough exact history
        # for this size bucket or a regression fit covering the size —
        # warm-started models therefore skip exploration entirely.
        samples = {
            key: view.n_samples(task, d.variant)
            for key, d in first.items()
            if not view.is_calibrated(task, d.variant, self.calibration_samples)
        }
        if samples:
            view.note_exploration(task)

            # among undersampled variants prefer the globally least
            # sampled one, then the earliest-starting worker for it
            def calib_key(d: Decision) -> tuple:
                return (
                    samples[id(d.variant)],
                    self.earliest_start(task, d, view),
                    d.anchor.unit_id,
                )

            return min(
                (d for d in candidates if id(d.variant) in samples), key=calib_key
            )

        # --- steady state: minimum expected completion time ----------------
        exec_ests = {
            key: view.predict_exec(task, d.variant, d.anchor)
            for key, d in first.items()
        }
        best: Decision | None = None
        best_key: tuple[float, int] | None = None
        # data readiness depends only on the target memory node;
        # candidates sharing a node share one estimate
        node_ready: dict[int, float] = {}
        for decision in candidates:
            node = decision.anchor.memory_node
            avail = max(
                view.worker_available_at(u.unit_id) for u in decision.workers
            )
            if self.data_aware:
                data_ready = node_ready.get(node)
                if data_ready is None:
                    data_ready = node_ready[node] = view.estimate_data_ready(
                        task, node
                    )
            else:
                data_ready = task.ready_time
            exec_est = exec_ests[id(decision.variant)]
            assert exec_est is not None  # calibrated: model must answer
            completion = max(task.ready_time, avail, data_ready) + exec_est
            if self.objective == "min_exec_time":
                score = completion
            else:
                energy = exec_est * sum(
                    u.device.busy_watts for u in decision.workers
                )
                score = energy if self.objective == "min_energy" else energy * completion
            key = (score, completion, decision.anchor.unit_id)
            if best_key is None or key < best_key:
                best, best_key = decision, key
        assert best is not None
        return best


class DmScheduler(DmdaScheduler):
    """StarPU ``dm``: performance-model driven but transfer-oblivious."""

    name = "dm"

    def __init__(self, calibration_samples: int = 2) -> None:
        super().__init__(data_aware=False, calibration_samples=calibration_samples)
