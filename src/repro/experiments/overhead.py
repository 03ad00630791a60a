"""Section V-E: runtime task overhead, and the engine's throughput floor.

The paper cites micro-benchmarking of the runtime system showing a
per-task overhead below ~2 microseconds, negligible against the gains of
performance-aware scheduling.  Every number here comes from one
empty-task cycle (:func:`_cycle`): no-op tasks rotating over 8 handles,
submitted under ``eager`` and drained, timed in virtual seconds and in
process CPU seconds.  CPU time (``time.process_time``) rather than wall
time: on shared CI machines wall time includes involuntary preemption,
which swamps the effects measured here.

- **modeled (virtual) overhead**: the virtual host time charged per
  submitted task (submission + wrapper packing), which is what the
  simulated timelines in every figure include — the section V-E row;
- **implementation (CPU) overhead**: the real Python time per task,
  kept in the BENCH document for transparency but out of the table,
  which holds only reproducible numbers (a Python simulator is orders
  of magnitude slower than StarPU's C fast path; the *modeled* number
  is the one calibrated to the paper).

Two gates ride on the same cycle:

- **obs budget**: the :mod:`repro.obs` default metrics suite (registry
  + samplers at the default period) may cost at most 5% over a bare
  engine, measured over symmetric off/on run sequences with a
  best-run-ratio estimator (see :func:`run_obs_overhead`);
- **throughput floor**: the bare engine must sustain
  :data:`THROUGHPUT_FLOOR` tasks per CPU second (best run) on two
  streams bracketing the dependency spectrum: *fan-out*, read-only
  operands and no dependencies (pure submit/schedule/complete; the
  metrics-off runs of the obs pairs), and *chain*, ``"rw"`` operands so
  each task waits on its handle's last writer (dependency inference at
  submission, ready propagation at completion).

``python -m repro.experiments.overhead`` writes
``benchmarks/results/BENCH_obs.json`` and exits non-zero when either
gate fails — which is what CI's observability entry runs with
``--smoke``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import Study, cli, table
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

#: CPU-time overhead budget for the obs layer (fraction)
OBS_BUDGET = 0.05

#: engine throughput floor (tasks per CPU second, best run, per stream).
#: The engine sustains ~50k tasks/s on both streams on one modern core;
#: the floor sits >3x below that, so only a genuine algorithmic
#: regression (an accidental O(n^2) in submit or completion, a
#: de-optimized hot path) trips it on noisy shared CI hardware
THROUGHPUT_FLOOR = 15_000.0


@dataclass(frozen=True)
class OverheadResult:
    n_tasks: int
    virtual_us_per_task: float
    cpu_us_per_task: float


def empty_codelet() -> Codelet:
    """A no-op codelet with negligible modeled cost."""
    return Codelet(
        "noop",
        [
            ImplVariant("noop_cpu", Arch.CPU, lambda ctx, *a: None, lambda ctx, dev: 1e-9),
            ImplVariant("noop_cuda", Arch.CUDA, lambda ctx, *a: None, lambda ctx, dev: 1e-9),
        ],
    )


def _cycle(
    n_tasks: int, seed: int, mode: str = "r", metrics: bool = False
) -> tuple[float, float]:
    """(virtual, CPU) seconds of one empty-task submit/drain cycle.

    ``n_tasks`` no-op tasks rotate over 8 handles with access ``mode``;
    ``metrics`` attaches the default metrics suite first.
    """
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed, noise_sigma=0.0)
    if metrics:
        from repro.obs import MetricsSuite

        MetricsSuite().attach(rt.engine)
    codelet = empty_codelet()
    data = np.zeros(16, dtype=np.float32)
    handles = [rt.register(data.copy(), f"d{i}") for i in range(8)]
    t0 = time.process_time()
    for i in range(n_tasks):
        rt.submit(codelet, [(handles[i % 8], mode)], name=f"noop{i}")
    virtual = rt.wait_for_all()
    cpu = time.process_time() - t0
    rt.shutdown()
    return virtual, cpu


def run(n_tasks: int = 2000, seed: int = 0) -> OverheadResult:
    """Submit ``n_tasks`` empty independent tasks and amortise the cost."""
    virtual, cpu = _cycle(n_tasks, seed)
    return OverheadResult(
        n_tasks=n_tasks,
        virtual_us_per_task=virtual / n_tasks * 1e6,
        cpu_us_per_task=cpu / n_tasks * 1e6,
    )


def format_result(result: OverheadResult) -> str:
    return table(
        f"Section V-E: per-task runtime overhead ({result.n_tasks} empty tasks)",
        ("quantity", "Paper", "Measured"),
        [("modeled (virtual) overhead", "< 2 us",
          f"{result.virtual_us_per_task:.3f} us/task")],
    )


# ---------------------------------------------------------------------------
# observability-layer overhead (metrics on vs off)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObsOverheadResult:
    """Engine throughput with and without the obs layer attached."""

    n_tasks: int
    reps: int
    base_us_per_task: float
    obs_us_per_task: float
    #: per-pair fractional overheads (one adjacent off/on pair per rep)
    pair_overheads: tuple[float, ...] = ()
    budget: float = OBS_BUDGET

    @property
    def overhead(self) -> float:
        """Fractional CPU-time overhead of metrics-on vs metrics-off.

        The ratio of the global minima (fastest obs run over fastest
        base run across all reps): CI noise — preemption, frequency
        scaling — only ever makes a run *look slower*, so the minimum
        over many runs is the consistent estimator of the undisturbed
        cost for both configurations, and their ratio converges to the
        true overhead.  Per-pair medians (kept in
        :attr:`pair_overheads` for transparency) proved too wide-tailed
        to gate CI on when the true cost sits near the budget.
        """
        if self.base_us_per_task <= 0:
            return 0.0
        return self.obs_us_per_task / self.base_us_per_task - 1.0

    @property
    def median_pair_overhead(self) -> float:
        """Median of the per-pair ratios (diagnostic, not the gate)."""
        if not self.pair_overheads:
            return self.overhead
        ratios = sorted(self.pair_overheads)
        mid = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[mid]
        return (ratios[mid - 1] + ratios[mid]) / 2.0

    @property
    def within_budget(self) -> bool:
        return self.overhead <= self.budget

    def to_dict(self) -> dict:
        return {
            "n_tasks": self.n_tasks,
            "reps": self.reps,
            "base_us_per_task": self.base_us_per_task,
            "obs_us_per_task": self.obs_us_per_task,
            "pair_overheads_pct": [o * 100.0 for o in self.pair_overheads],
            "median_pair_overhead_pct": self.median_pair_overhead * 100.0,
            "overhead_pct": self.overhead * 100.0,
            "budget_pct": self.budget * 100.0,
            "within_budget": self.within_budget,
        }


def run_obs_overhead(
    n_tasks: int = 6000, reps: int = 9, seed: int = 0
) -> ObsOverheadResult:
    """Measure the obs layer's CPU cost on the empty-task cycle.

    Every rep runs the symmetric sequence off-on-on-off and takes the
    *minimum* per configuration: CPU-time noise on a shared machine only
    slows runs down (preemption, frequency throttling), so the min is
    the best estimate of the undisturbed cost, and the symmetric order
    cancels load drift across the rep.  The headline overhead is the
    ratio of the global minima across all reps (see
    :attr:`ObsOverheadResult.overhead` for why that estimator).
    """
    base_runs: list[float] = []
    obs_runs: list[float] = []
    pair_overheads: list[float] = []
    # one throwaway warm-up pair so import/JIT/allocator effects land
    # outside the measurement
    _cycle(min(n_tasks, 200), seed, metrics=False)
    _cycle(min(n_tasks, 200), seed, metrics=True)
    for rep in range(reps):
        base_a = _cycle(n_tasks, seed + rep, metrics=False)[1]
        obs_a = _cycle(n_tasks, seed + rep, metrics=True)[1]
        obs_b = _cycle(n_tasks, seed + rep, metrics=True)[1]
        base_b = _cycle(n_tasks, seed + rep, metrics=False)[1]
        base, obs = min(base_a, base_b), min(obs_a, obs_b)
        base_runs.append(base)
        obs_runs.append(obs)
        pair_overheads.append(obs / base - 1.0)
    return ObsOverheadResult(
        n_tasks=n_tasks,
        reps=reps,
        base_us_per_task=min(base_runs) / n_tasks * 1e6,
        obs_us_per_task=min(obs_runs) / n_tasks * 1e6,
        pair_overheads=tuple(pair_overheads),
    )


def format_obs_result(result: ObsOverheadResult) -> str:
    verdict = "within" if result.within_budget else "OVER"
    return table(
        "Observability overhead "
        f"({result.n_tasks} empty tasks, {result.reps} alternating pairs)",
        ("metrics", "us/task CPU (best run)"),
        [("off", f"{result.base_us_per_task:.1f}"),
         ("on (registry + samplers at default period)",
          f"{result.obs_us_per_task:.1f}")],
        [f"overhead: {result.overhead * 100.0:+.2f}% (ratio of best runs; "
         f"median pair {result.median_pair_overhead * 100.0:+.2f}%), "
         f"{verdict} the {result.budget * 100.0:.0f}% budget"],
    )


# ---------------------------------------------------------------------------
# engine throughput floor (fan-out and chain streams)
# ---------------------------------------------------------------------------


def run_chain(n_tasks: int = 6000, reps: int = 9, seed: int = 0) -> float:
    """Best CPU seconds of ``reps`` ``"rw"`` cycles, after one warm-up."""
    _cycle(min(n_tasks, 200), seed, mode="rw")
    return min(_cycle(n_tasks, seed + rep, mode="rw")[1] for rep in range(reps))


def format_throughput(rates: dict[str, float]) -> str:
    return table(
        f"Engine throughput (floor {THROUGHPUT_FLOOR:.0f} tasks/s)",
        ("stream", "tasks/s CPU (best run)", "floor"),
        [(name, f"{rate:.0f}", "ok" if rate >= THROUGHPUT_FLOOR else "UNDER")
         for name, rate in rates.items()],
    )


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

def study(smoke: bool) -> Study:
    # runs must be long enough (hundreds of ms) that machine-load
    # oscillation averages out within each rep
    n_tasks, reps = (3000, 5) if smoke else (6000, 9)
    base = run(n_tasks=500 if smoke else 2000)
    obs = run_obs_overhead(n_tasks=n_tasks, reps=reps)
    rates = {
        "fanout": 1e6 / obs.base_us_per_task,
        "chain": n_tasks / run_chain(n_tasks=n_tasks, reps=reps),
    }
    floor_ok = min(rates.values()) >= THROUGHPUT_FLOOR
    return Study(
        report="\n\n".join(
            (format_result(base), format_obs_result(obs), format_throughput(rates))
        ),
        doc={
            "smoke": smoke,
            "task_overhead": {
                "n_tasks": base.n_tasks,
                "virtual_us_per_task": base.virtual_us_per_task,
                "cpu_us_per_task": base.cpu_us_per_task,
            },
            "obs_overhead": obs.to_dict(),
            "throughput": {
                "n_tasks": n_tasks,
                "reps": reps,
                "tasks_per_s": rates,
                "floor_tasks_per_s": THROUGHPUT_FLOOR,
                "within_floor": floor_ok,
            },
        },
        bench="obs",
        gates={"obs_budget": obs.within_budget, "throughput_floor": floor_ok},
    )


if __name__ == "__main__":
    raise SystemExit(cli(study))
