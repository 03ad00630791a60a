"""Fault-injection ablation: resilience of dynamic composition.

A result the paper's setup enables but never ran: because every
composed component carries *multiple* interchangeable implementation
variants, the runtime can recover from GPU faults by re-running the
failed invocation on another variant/worker (GPU -> CPU fallback).  This
study quantifies that claim on the Figure-6 workloads:

- ``fault_study`` sweeps the transient kernel-fault rate and reports,
  per scheduling policy, the success rate, retry/fallback counts and the
  makespan inflation relative to the fault-free run;
- ``device_loss_study`` kills the GPU at a chosen virtual time mid-run
  and shows graceful degradation: in-flight GPU work is requeued onto
  CPU variants, device replicas are re-sourced, and the run completes.

Both use seeded :class:`~repro.hw.faults.FaultModel` schedules, so every
number is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvariantViolation, PeppherError, UnrecoverableTaskError
from repro.experiments.fig6 import SCENARIOS, AppScenario
from repro.experiments.runner import Study, cli, table
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime import RecoveryPolicy, Runtime

#: policies compared (the same set as the scheduler ablation)
POLICIES = ("eager", "ws", "dmda")

#: default kernel-fault rates swept (0 = the fault-free baseline)
RATES = (0.0, 0.02, 0.05, 0.1)


@dataclass(frozen=True)
class FaultCell:
    """One (policy, fault-rate) measurement."""

    policy: str
    rate: float
    #: fraction of repetitions that completed despite the faults
    success_rate: float
    #: mean virtual makespan of the successful repetitions (seconds)
    makespan_s: float
    #: makespan relative to the same policy at rate 0
    inflation: float
    n_faults: int
    n_retries: int
    n_fallbacks: int
    n_recovered: int
    n_lost: int


@dataclass
class FaultStudyResult:
    """Sweep results for one application."""

    app: str
    size: int
    reps: int
    cells: list[FaultCell] = field(default_factory=list)

    def cell(self, policy: str, rate: float) -> FaultCell:
        for c in self.cells:
            if c.policy == policy and c.rate == rate:
                return c
        raise KeyError((policy, rate))


def _run_once(
    scenario: AppScenario,
    policy: str,
    faults: FaultModel | None,
    seed: int,
    size: int,
    recovery: RecoveryPolicy,
    calls: int = 1,
    check: bool | None = None,
) -> tuple[float | None, dict[str, int]]:
    """One repetition (``calls`` invocations in one session); returns
    (makespan or None on failure, fault tallies)."""
    rt = Runtime(
        platform_c2050(),
        scheduler=policy,
        seed=seed,
        faults=faults,
        recovery=recovery,
        check=check,
    )
    stats = {"faults": 0, "retries": 0, "fallbacks": 0, "recovered": 0, "lost": 0}
    try:
        codelets = scenario.make_codelets()
        for _ in range(calls):
            scenario.run_once(rt, codelets, size, seed)
        makespan = rt.shutdown()
    except InvariantViolation:
        # an illegal trace is a checker finding, never a "failed rep"
        raise
    except (UnrecoverableTaskError, PeppherError):
        makespan = None
    stats["faults"] = rt.trace.n_faults
    stats["retries"] = rt.trace.n_task_retries
    stats["fallbacks"] = rt.trace.n_fallbacks
    stats["recovered"] = rt.trace.n_tasks_recovered
    stats["lost"] = rt.trace.n_tasks_lost
    return makespan, stats


def fault_study(
    app: str = "sgemm",
    policies: tuple[str, ...] = POLICIES,
    rates: tuple[float, ...] = RATES,
    size_index: int = 0,
    reps: int = 3,
    calls: int = 8,
    seed: int = 0,
    transfer_rate_scale: float = 0.2,
    recovery: RecoveryPolicy | None = None,
    check: bool | None = None,
) -> FaultStudyResult:
    """Makespan and success rate vs. fault rate across schedulers.

    Each cell runs ``reps`` repetitions of one Figure-6 application at
    ``sizes[size_index]``, with ``calls`` component invocations per
    repetition (several invocations per session give the fault schedule
    enough attempts to actually strike at low rates); transfers fault at
    ``transfer_rate_scale`` times the kernel rate (corruption is rarer
    than kernel failure on real hardware).
    """
    scenario = SCENARIOS[app]
    size = scenario.sizes[size_index]
    recovery = recovery or RecoveryPolicy()
    result = FaultStudyResult(app=app, size=size, reps=reps)
    baseline: dict[str, float] = {}
    for policy in policies:
        for rate in rates:
            makespans: list[float] = []
            tallies = {"faults": 0, "retries": 0, "fallbacks": 0,
                       "recovered": 0, "lost": 0}
            for rep in range(reps):
                faults = (
                    FaultModel(
                        kernel_fault_rate=rate,
                        transfer_fault_rate=rate * transfer_rate_scale,
                        seed=seed + rep,
                    )
                    if rate > 0
                    else None
                )
                makespan, stats = _run_once(
                    scenario, policy, faults, seed + rep, size, recovery,
                    calls=calls, check=check,
                )
                if makespan is not None:
                    makespans.append(makespan)
                for k in tallies:
                    tallies[k] += stats[k]
            mean = float(np.mean(makespans)) if makespans else float("nan")
            if rate == 0.0:
                baseline[policy] = mean
            base = baseline.get(policy, mean)
            result.cells.append(
                FaultCell(
                    policy=policy,
                    rate=rate,
                    success_rate=len(makespans) / reps,
                    makespan_s=mean,
                    inflation=mean / base if base and base > 0 else float("nan"),
                    n_faults=tallies["faults"],
                    n_retries=tallies["retries"],
                    n_fallbacks=tallies["fallbacks"],
                    n_recovered=tallies["recovered"],
                    n_lost=tallies["lost"],
                )
            )
    return result


def format_fault_study(result: FaultStudyResult) -> str:
    return table(
        f"ABL-F1: fault sweep on {result.app} (size {result.size}, "
        f"{result.reps} reps/cell; inflation is vs. the same policy at rate 0)",
        ("policy", "rate", "ok", "makespan (ms)", "inflate", "faults",
         "retries", "fallbacks", "lost"),
        [
            (c.policy, f"{c.rate:.2f}", f"{c.success_rate:.0%}",
             f"{c.makespan_s * 1e3:.3f}", f"{c.inflation:.3f}", c.n_faults,
             c.n_retries, c.n_fallbacks, c.n_lost)
            for c in result.cells
        ],
    )


# ---------------------------------------------------------------------------
# device-loss scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceLossRow:
    """One scripted GPU-loss run."""

    policy: str
    #: virtual time the GPU died, as a fraction of the fault-free makespan
    loss_fraction: float
    completed: bool
    makespan_s: float
    inflation: float
    n_replicas_recovered: int
    n_retries: int
    tasks_by_arch: dict[str, int]


def device_loss_study(
    app: str = "sgemm",
    policies: tuple[str, ...] = POLICIES,
    loss_fractions: tuple[float, ...] = (0.25, 0.5, 0.75),
    size_index: int = 0,
    seed: int = 0,
    check: bool | None = None,
) -> list[DeviceLossRow]:
    """Kill the GPU partway through the run; measure graceful degradation.

    The loss time is scripted at a fraction of each policy's fault-free
    makespan, so "the GPU died halfway" means the same thing for every
    policy regardless of how fast it would have finished.
    """
    scenario = SCENARIOS[app]
    size = scenario.sizes[size_index]
    rows: list[DeviceLossRow] = []
    for policy in policies:
        base, _ = _run_once(
            scenario, policy, None, seed, size, RecoveryPolicy(), check=check
        )
        assert base is not None  # fault-free run must succeed
        for frac in loss_fractions:
            machine = platform_c2050()
            gpu_unit = machine.gpu_units[0].unit_id
            faults = FaultModel(
                device_loss_at={gpu_unit: base * frac}, seed=seed
            )
            rt = Runtime(
                platform_c2050(), scheduler=policy, seed=seed, faults=faults,
                check=check,
            )
            completed = True
            try:
                scenario.run_once(rt, scenario.make_codelets(), size, seed)
                makespan = rt.shutdown()
            except InvariantViolation:
                raise
            except PeppherError:
                completed = False
                makespan = float("nan")
            rows.append(
                DeviceLossRow(
                    policy=policy,
                    loss_fraction=frac,
                    completed=completed,
                    makespan_s=makespan,
                    inflation=makespan / base if completed else float("nan"),
                    n_replicas_recovered=rt.trace.n_replicas_recovered,
                    n_retries=rt.trace.n_task_retries,
                    tasks_by_arch=rt.trace.tasks_by_arch(),
                )
            )
    return rows


def format_device_loss_study(rows: list[DeviceLossRow]) -> str:
    return table(
        "ABL-F2: scripted GPU loss mid-run (inflation vs. fault-free makespan)",
        ("policy", "lost at", "done", "makespan (ms)", "inflate", "replicas",
         "retries", "tasks by arch"),
        [
            (r.policy, f"{r.loss_fraction:.2f}", "yes" if r.completed else "NO",
             f"{r.makespan_s * 1e3:.3f}", f"{r.inflation:.3f}",
             r.n_replicas_recovered, r.n_retries,
             ", ".join(f"{a}: {n}" for a, n in sorted(r.tasks_by_arch.items())))
            for r in rows
        ],
    )


def study(smoke: bool) -> Study:
    if smoke:
        # tiny sweep for CI, with trace invariant checking on
        cells = fault_study(
            policies=("eager", "dmda"), rates=(0.0, 0.05), reps=1, calls=2,
            check=True,
        )
        rows = device_loss_study(
            policies=("eager", "dmda"), loss_fractions=(0.5,), check=True
        )
    else:
        cells = fault_study()
        rows = device_loss_study()
    report = f"{format_fault_study(cells)}\n\n{format_device_loss_study(rows)}"
    if smoke:
        report += "\n\ntrace invariant checking: every run validated at shutdown"
    return Study(report=report)


if __name__ == "__main__":
    raise SystemExit(cli(study))
