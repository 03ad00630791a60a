"""Engine throughput benchmark: submit → schedule → complete tasks/sec.

The discrete-event core is the hot path under every experiment and the
serving layer, so its wall-clock throughput is a regression budget worth
gating.  Two synthetic workloads bracket the dependency spectrum:

- **fan-out** — independent tasks spread over a handful of handles;
  pure submit/schedule/complete cost, no dependency chains;
- **chain** — every task read-writes one handle, so each submission
  walks the sequential-consistency dependency inference and the ready
  propagation at completion.

Kernels are skipped (``run_kernels=False``) and noise is off: this
measures the *engine*, not NumPy.

Methodology: each workload runs once untimed to warm caches (imports,
code objects, the scheduler's candidate plan), then ``reps`` timed
repetitions with the garbage collector paused around the timed region;
the *best* repetition is the reported rate.  Best-of-N over a warmed
process is the standard defense against noisy shared hardware (CI
runners, laptops under load): interference only ever makes a rep
slower, so the minimum wall time is the most repeatable estimator of
what the engine can actually sustain.

``python -m repro.experiments.engine_bench`` writes
``benchmarks/results/BENCH_engine.json`` and exits non-zero when either
workload falls under the throughput floor (``--smoke`` uses smaller
task counts for CI).  ``--profile`` additionally cProfiles one untimed
repetition per workload, writes the top functions to
``BENCH_engine_profile.txt``, and fails if a known-cold function — the
zero-subscriber event emitters, which the want-gates must skip — shows
up among the hottest frames.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.experiments.runner import Study, cli, table
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

#: throughput floor (tasks/second, wall clock, best warmed rep).  The
#: slotted-trace / batched-dispatch engine sustains ~50-70k tasks/s on
#: both workloads on a single modern core; the floor sits >3x below
#: that so only a genuine algorithmic regression (accidental O(n^2) in
#: submit or completion, a de-optimized hot path) trips it on noisy
#: shared CI hardware, while the pre-refactor engine (~11-13k tasks/s)
#: would no longer pass.
THROUGHPUT_FLOOR = 15000.0

#: timed repetitions per workload (best is reported); the smoke run
#: uses fewer to keep CI latency down
DEFAULT_REPS = 5
SMOKE_REPS = 3


@dataclass(frozen=True)
class WorkloadResult:
    workload: str
    n_tasks: int
    wall_s: float
    reps: int = 1
    rates: tuple[float, ...] = ()

    @property
    def tasks_per_s(self) -> float:
        return self.n_tasks / self.wall_s if self.wall_s > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "n_tasks": self.n_tasks,
            "wall_s": self.wall_s,
            "tasks_per_s": self.tasks_per_s,
            "reps": self.reps,
            "rates": list(self.rates),
        }


def _bench_codelet() -> Codelet:
    return Codelet(
        "bench",
        [
            ImplVariant(
                "bench_cpu", Arch.CPU, lambda ctx, *a: None, lambda ctx, dev: 1e-7
            ),
            ImplVariant(
                "bench_cuda", Arch.CUDA, lambda ctx, *a: None, lambda ctx, dev: 1e-8
            ),
        ],
    )


def _runtime(seed: int) -> Runtime:
    return Runtime(
        platform_c2050(),
        scheduler="eager",
        seed=seed,
        noise_sigma=0.0,
        run_kernels=False,
    )


def run_fanout(n_tasks: int = 5000, n_handles: int = 8, seed: int = 0) -> WorkloadResult:
    """Independent tasks over a rotating set of read-only handles."""
    rt = _runtime(seed)
    codelet = _bench_codelet()
    handles = [
        rt.register(np.zeros(64, dtype=np.float32), f"f{i}")
        for i in range(n_handles)
    ]
    t0 = time.perf_counter()
    for i in range(n_tasks):
        rt.submit(codelet, [(handles[i % n_handles], "r")], name=f"fan{i}")
    rt.wait_for_all()
    wall = time.perf_counter() - t0
    rt.shutdown()
    return WorkloadResult("fanout", n_tasks, wall)


def run_chain(n_tasks: int = 5000, seed: int = 0) -> WorkloadResult:
    """A single rw-dependency chain through one handle."""
    rt = _runtime(seed)
    codelet = _bench_codelet()
    h = rt.register(np.zeros(64, dtype=np.float32), "chain")
    t0 = time.perf_counter()
    for i in range(n_tasks):
        rt.submit(codelet, [(h, "rw")], name=f"chain{i}")
    rt.wait_for_all()
    wall = time.perf_counter() - t0
    rt.shutdown()
    return WorkloadResult("chain", n_tasks, wall)


def _measure(fn, n_tasks: int, seed: int, reps: int) -> WorkloadResult:
    """Warm once, then take the best of ``reps`` GC-paused repetitions."""
    fn(n_tasks=min(n_tasks, 500), seed=seed)  # warm-up, untimed
    best: WorkloadResult | None = None
    rates = []
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            r = fn(n_tasks=n_tasks, seed=seed)
        finally:
            gc.enable()
        rates.append(r.tasks_per_s)
        if best is None or r.wall_s < best.wall_s:
            best = r
    assert best is not None
    return WorkloadResult(
        best.workload, best.n_tasks, best.wall_s, reps, tuple(rates)
    )


def run(smoke: bool = False, seed: int = 0) -> list[WorkloadResult]:
    n = 1000 if smoke else 5000
    reps = SMOKE_REPS if smoke else DEFAULT_REPS
    return [
        _measure(run_fanout, n, seed, reps),
        _measure(run_chain, n, seed, reps),
    ]


def format_results(results: list[WorkloadResult]) -> str:
    return table(
        f"engine throughput (floor {THROUGHPUT_FLOOR:.0f} tasks/s)",
        ("workload", "tasks", "wall (s)", "tasks/s", "best of", "floor"),
        [
            (r.workload, r.n_tasks, f"{r.wall_s:.3f}", f"{r.tasks_per_s:.0f}",
             r.reps, "ok" if r.tasks_per_s >= THROUGHPUT_FLOOR else "UNDER")
            for r in results
        ],
    )


# ---------------------------------------------------------------------------
# --profile: where does the engine actually spend its time?
# ---------------------------------------------------------------------------

#: how many of the most cumulative-expensive functions the summary shows
PROFILE_TOP = 20

#: functions that must NOT appear among the hottest frames of a
#: metrics-off run: the engine's want-gates are supposed to skip the
#: zero-subscriber event emitters entirely, so any emit_* frame from the
#: events module in the top of the profile means a gate regressed
_COLD_PREFIX = "emit_"
_COLD_MODULE = "events"
_COLD_TOP = 10


def _cold_offenders(stats: pstats.Stats) -> list[str]:
    """Known-cold functions found in the top-N cumulative frames."""
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda kv: kv[1][3],  # cumulative time
        reverse=True,
    )[:_COLD_TOP]
    offenders = []
    for (filename, _line, func), _stat in entries:
        if func.startswith(_COLD_PREFIX) and _COLD_MODULE in Path(filename).stem:
            offenders.append(f"{Path(filename).name}:{func}")
    return offenders


def profile_workloads(n_tasks: int, seed: int = 0) -> tuple[str, list[str]]:
    """cProfile each workload once; return (summary text, offenders)."""
    sections = []
    offenders: list[str] = []
    for fn in (run_fanout, run_chain):
        prof = cProfile.Profile()
        prof.enable()
        r = fn(n_tasks=n_tasks, seed=seed)
        prof.disable()
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(PROFILE_TOP)
        offenders.extend(_cold_offenders(stats))
        sections.append(
            f"=== {r.workload} ({r.n_tasks} tasks, profiled) ===\n"
            + buf.getvalue()
        )
    text = "\n".join(sections)
    if offenders:
        text += (
            "\nKNOWN-COLD FUNCTIONS IN TOP "
            f"{_COLD_TOP}: {', '.join(offenders)}\n"
            "(zero-subscriber event emitters must be skipped by the "
            "want-gates; this is a hot-path regression)\n"
        )
    return text, offenders


def study(smoke: bool, profile: bool = False) -> Study:
    results = run(smoke=smoke)
    ok = all(r.tasks_per_s >= THROUGHPUT_FLOOR for r in results)
    out = Study(
        report=format_results(results),
        doc={
            "smoke": smoke,
            "floor_tasks_per_s": THROUGHPUT_FLOOR,
            "within_budget": ok,
            "workloads": [r.to_dict() for r in results],
        },
        bench="engine",
        gates={"throughput_floor": ok},
    )
    if profile:
        text, offenders = profile_workloads(n_tasks=1000 if smoke else 5000)
        out.tables["BENCH_engine_profile"] = text
        out.gates["no_cold_frames_in_profile"] = not offenders
    return out


if __name__ == "__main__":
    raise SystemExit(
        cli(
            study,
            profile={
                "action": "store_true",
                "help": "cProfile each workload, write "
                "BENCH_engine_profile.txt, and fail if a zero-subscriber "
                f"event emitter shows up in the top {_COLD_TOP} "
                "cumulative frames",
            },
        )
    )
