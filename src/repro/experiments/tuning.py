"""Tuning study: cold-start exploration vs store-warmed composition.

The paper's runtime (like StarPU) learns per-variant execution-time
models *online*: the first invocations of a component are exploration —
placements made to gather timings, not because they are predicted best.
The :mod:`repro.tuning` layer removes that cost by persisting calibrated
models per machine and warm-starting later sessions from the store.

This ablation quantifies the claim on an sgemm task stream:

- **cold** — a fresh session with no store runs the stream repeatedly
  (``Session.restart`` between batches keeps the learned model, like a
  long-lived process).  Batch 0 pays the exploration tax; later batches
  are the in-process steady state;
- **calibrate** — :func:`repro.tuning.calibrate_component` populates a
  store for the machine with its adaptive ladder (a fraction of the
  brute-force training cost);
- **warm** — a *fresh* session warm-started from that store runs one
  batch.  It must make **zero** exploration placement decisions and its
  makespan must land within tolerance of the cold run's steady-state
  tail: persistent calibration buys steady-state performance from the
  first task.

Run ``python -m repro.experiments.tuning`` to regenerate
``benchmarks/results/tuning_ablation.txt`` and the machine-readable
``BENCH_tuning.json`` (``--smoke`` shrinks it for CI).  The exit status
is non-zero when the warm run explores or misses the tolerance, so CI
can gate on it.

All runs are virtual-time simulations with seeded noise: every number
is deterministic.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import sgemm
from repro.composer.glue import lower_component
from repro.experiments.runner import Study, cli, table
from repro.hw.presets import platform_c2050
from repro.session import Session
from repro.tuning import PerfModelStore, calibrate_component

#: makespan tolerance: warm vs cold steady-state tail (acceptance bar)
TOLERANCE = 0.10


@dataclass(frozen=True)
class BatchCell:
    """One batch of the task stream on one session."""

    label: str
    makespan_ms: float
    exploration_decisions: int
    n_tasks: int


@dataclass
class TuningAblationResult:
    platform: str
    sizes: tuple[int, ...]
    tasks_per_size: int
    tolerance: float = TOLERANCE
    cold: list[BatchCell] = field(default_factory=list)
    warm: BatchCell | None = None
    calibration: dict = field(default_factory=dict)

    @property
    def cold_tail_ms(self) -> float:
        """Steady-state makespan: mean over the later half of the cold
        batches (exploration is concentrated in the first)."""
        tail = self.cold[len(self.cold) // 2:]
        return sum(c.makespan_ms for c in tail) / len(tail)

    @property
    def warm_over_tail(self) -> float:
        return self.warm.makespan_ms / self.cold_tail_ms

    @property
    def warm_zero_exploration(self) -> bool:
        return self.warm is not None and self.warm.exploration_decisions == 0

    @property
    def within_tolerance(self) -> bool:
        return abs(self.warm_over_tail - 1.0) <= self.tolerance

    @property
    def ok(self) -> bool:
        return self.warm_zero_exploration and self.within_tolerance

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "sizes": list(self.sizes),
            "tasks_per_size": self.tasks_per_size,
            "tolerance": self.tolerance,
            "cold": [vars(c) for c in self.cold],
            "warm": vars(self.warm) if self.warm is not None else None,
            "calibration": self.calibration,
            "cold_tail_ms": self.cold_tail_ms,
            "warm_over_tail": self.warm_over_tail,
            "warm_zero_exploration": self.warm_zero_exploration,
            "within_tolerance": self.within_tolerance,
            "ok": self.ok,
        }


def _run_batch(
    session: Session, codelet, sizes: tuple[int, ...], tasks_per_size: int,
    label: str,
) -> BatchCell:
    """Submit the sgemm task stream and measure its makespan."""
    start = session.now
    n_tasks = 0
    for size in sizes:
        for _ in range(tasks_per_size):
            operands, scalar_args = sgemm.training_operands(
                {"m": size, "n": size, "k": size}, session
            )
            session.submit(
                codelet,
                operands,
                ctx={"m": size, "n": size, "k": size},
                scalar_args=scalar_args,
                name=f"sgemm{size}",
            )
            n_tasks += 1
    session.wait_for_all()
    return BatchCell(
        label=label,
        makespan_ms=(session.now - start) * 1e3,
        exploration_decisions=session.trace.n_exploration_decisions,
        n_tasks=n_tasks,
    )


def run_tuning_ablation(
    machine_factory=None,
    sizes: tuple[int, ...] = (96, 192, 384, 768),
    tasks_per_size: int = 8,
    n_cold_batches: int = 4,
    rungs: int = 6,
    seed: int = 0,
    store_root: Path | None = None,
) -> TuningAblationResult:
    """Cold stream vs calibrate-then-warm-start, same machine preset."""
    machine_factory = machine_factory or platform_c2050
    codelet = lower_component(sgemm.INTERFACE, sgemm.IMPLEMENTATIONS)
    result = TuningAblationResult(
        platform=machine_factory().name,
        sizes=sizes,
        tasks_per_size=tasks_per_size,
    )

    # -- cold: one long-lived session, no store -----------------------------
    cold = Session(
        machine_factory, scheduler="dmda", seed=seed, run_kernels=False
    )
    for batch in range(n_cold_batches):
        if batch:
            cold.restart(seed + batch)
        result.cold.append(
            _run_batch(cold, codelet, sizes, tasks_per_size, f"cold[{batch}]")
        )
    cold.shutdown()

    # -- calibrate: adaptive ladder fills the store -------------------------
    if store_root is None:
        store_root = Path(tempfile.mkdtemp(prefix="peppher-store-"))
    store = PerfModelStore(store_root)
    report = calibrate_component(
        sgemm.INTERFACE,
        sgemm.IMPLEMENTATIONS,
        machine_factory,
        sgemm.training_operands,
        store=store,
        rungs=rungs,
        seed=seed + 1000,
    )
    result.calibration = {
        "total_runs": report.total_runs,
        "rungs": len(report.ladder),
        "store_root": str(store_root),
        "variants": {
            name: {"runs": vc.runs, "fitted": vc.fitted}
            for name, vc in sorted(report.variants.items())
        },
    }

    # -- warm: a fresh session (new store object = fresh process) -----------
    warm = Session(
        machine_factory,
        scheduler="dmda",
        seed=seed + 2000,
        run_kernels=False,
        store=PerfModelStore(store_root),
    )
    result.warm = _run_batch(warm, codelet, sizes, tasks_per_size, "warm")
    warm.shutdown()
    return result


def format_tuning_ablation(result: TuningAblationResult) -> str:
    cal = result.calibration
    return table(
        f"Tuning ablation ({result.platform}): sgemm stream, sizes "
        f"{list(result.sizes)} x {result.tasks_per_size} tasks",
        ("batch", "makespan (ms)", "exploration decisions"),
        [
            (c.label, f"{c.makespan_ms:.3f}", c.exploration_decisions)
            for c in result.cold + [result.warm]
        ],
        [
            f"calibration: {cal['total_runs']} adaptive runs over "
            f"{cal['rungs']} rungs",
            f"warm vs cold steady tail: {result.warm_over_tail:.3f}x "
            f"(tail {result.cold_tail_ms:.3f}ms, tol ±{result.tolerance:.0%}); "
            f"warm exploration decisions: "
            f"{result.warm.exploration_decisions} -> "
            f"{'OK' if result.ok else 'FAIL'}",
        ],
    )


def study(smoke: bool, store: Path | None = None) -> Study:
    if smoke:
        # every Session/Runtime the ablation builds then validates its
        # trace at shutdown
        from repro.check.config import set_default_check

        set_default_check(True)
        result = run_tuning_ablation(
            sizes=(96, 256), tasks_per_size=6, n_cold_batches=3,
            rungs=5, store_root=store,
        )
    else:
        result = run_tuning_ablation(store_root=store)
    text = format_tuning_ablation(result)
    return Study(
        report=text,
        doc={"smoke": smoke, **result.to_dict()},
        bench="tuning",
        tables={"tuning_ablation": text},
        gates={
            "warm_zero_exploration": result.warm_zero_exploration,
            "within_tolerance": result.within_tolerance,
        },
    )


if __name__ == "__main__":
    raise SystemExit(
        cli(
            study,
            store={
                "type": Path,
                "help": "perf-model store directory (default: a fresh temp dir)",
            },
        )
    )
