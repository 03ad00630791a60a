"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but experiments that isolate *why* the
paper's mechanisms matter on this implementation:

- ``scheduler_study``  — eager vs random vs ws vs dm vs dmda on the
  hybrid SpMV workload (what performance-aware, data-aware scheduling
  buys, section V-D's mechanism);
- ``container_study``  — smart containers vs raw always-copy parameters
  over repeated component calls (section IV-D / IV-H);
- ``narrowing_study``  — user-guided static narrowing vs full dynamic
  composition on small calls (section IV-A's motivation: removing the
  risk/overhead of dynamic selection when the winner is known);
- ``energy_study``     — the main descriptor's optimization goal:
  min_exec_time vs min_energy on a time/energy trade-off workload;
- ``multigpu_study``   — hybrid SpMV scaling from 1 to 2 GPUs (the
  component model's multi-GPU claim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import sgemm, spmv
from repro.composer.glue import lower_component
from repro.experiments.runner import table
from repro.hw.presets import platform_c2050, platform_dual_c2050
from repro.runtime import Runtime
from repro.runtime.perfmodel import PerfModel
from repro.workloads.dense import gemm_inputs
from repro.workloads.sparse import make_matrix


# ---------------------------------------------------------------------------
# ABL1: scheduling policies on partitioned SpMV
# ---------------------------------------------------------------------------

def scheduler_study(
    policies: tuple[str, ...] = ("eager", "random", "ws", "dm", "dmda"),
    matrix: str = "Simulation",
    scale: float = 0.25,
    n_chunks: int = 24,
    seed: int = 0,
) -> dict[str, float]:
    """Virtual makespan of hybrid SpMV per scheduling policy."""
    mat = make_matrix(matrix, seed=seed, scale=scale)
    results: dict[str, float] = {}
    for policy in policies:
        perf = PerfModel()
        # two runs: the first trains history models, the second measures
        for rep, measure in ((0, False), (1, True)):
            rt = Runtime(
                platform_c2050(n_cpu_cores=5),
                scheduler=policy,
                seed=seed + rep,
                perfmodel=perf,
                run_kernels=False,
            )
            codelet = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS).without(
                ["spmv_openmp"]
            )
            hv = rt.register(mat.values, "values")
            hc = rt.register(mat.colidxs, "colidxs")
            hp = rt.register(mat.rowptr, "rowptr")
            hx = rt.register(np.ones(mat.ncols, dtype=np.float32), "x")
            hy = rt.register(np.zeros(mat.nrows, dtype=np.float32), "y")
            spmv.submit_partitioned(
                rt, codelet, hv, hc, hp, hx, hy, mat.rowptr, mat.ncols, n_chunks
            )
            rt.unpartition(hy)
            elapsed = rt.shutdown()
            if measure:
                results[policy] = elapsed
    return results


def format_scheduler_study(results: dict[str, float]) -> str:
    best = min(results.values())
    return table(
        "ABL1: scheduling policies on hybrid SpMV (virtual makespan)",
        ("policy", "makespan (ms)", "vs best"),
        [
            (policy, f"{t * 1e3:.3f}", f"{t / best:.2f}x")
            for policy, t in sorted(results.items(), key=lambda kv: kv[1])
        ],
        ["expected: availability/model-aware policies (eager/dm/dmda) cluster "
         "at the front; random trails badly"],
    )


# ---------------------------------------------------------------------------
# ABL2: smart containers vs raw always-copy parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainerStudyResult:
    calls: int
    smart_s: float
    smart_transfers: int
    raw_s: float
    raw_transfers: int

    @property
    def speedup(self) -> float:
        return self.raw_s / self.smart_s


def container_study(
    nrows: int = 100_000,
    calls: int = 10,
    seed: int = 0,
) -> ContainerStudyResult:
    """Repeated sgemm-free spmv calls: containers reuse device copies.

    Smart containers keep operands registered across invocations
    (section IV-H's "efficient repetitive execution"); raw NumPy
    parameters force register/sync/flush/unregister every call.
    """
    from repro.workloads.sparse import random_csr

    mat = random_csr(nrows, nrows, 8, seed=seed)
    cuda_only = [i for i in spmv.IMPLEMENTATIONS if i.platform == "cuda"]

    # --- smart containers: register once, submit many -----------------
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed, run_kernels=False)
    codelet = lower_component(spmv.INTERFACE, cuda_only)
    hv = rt.register(mat.values, "values")
    hc = rt.register(mat.colidxs, "colidxs")
    hp = rt.register(mat.rowptr, "rowptr")
    hx = rt.register(np.ones(nrows, dtype=np.float32), "x")
    hy = rt.register(np.zeros(nrows, dtype=np.float32), "y")
    for _ in range(calls):
        rt.submit(
            codelet,
            [(hv, "r"), (hc, "r"), (hp, "r"), (hx, "r"), (hy, "w")],
            ctx={"nnz": mat.nnz, "nrows": nrows, "ncols": nrows, "first": 0},
            scalar_args=(mat.nnz, nrows, nrows, 0),
        )
    rt.acquire(hy, "r")
    smart_s = rt.now
    smart_transfers = rt.trace.n_transfers
    rt.shutdown()

    # --- raw parameters: register + flush every call -------------------
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed, run_kernels=False)
    codelet = lower_component(spmv.INTERFACE, cuda_only)
    x = np.ones(nrows, dtype=np.float32)
    y = np.zeros(nrows, dtype=np.float32)
    for _ in range(calls):
        handles = [
            rt.register(mat.values, "values"),
            rt.register(mat.colidxs, "colidxs"),
            rt.register(mat.rowptr, "rowptr"),
            rt.register(x, "x"),
            rt.register(y, "y"),
        ]
        rt.submit(
            codelet,
            list(zip(handles, ("r", "r", "r", "r", "w"))),
            ctx={"nnz": mat.nnz, "nrows": nrows, "ncols": nrows, "first": 0},
            scalar_args=(mat.nnz, nrows, nrows, 0),
            sync=True,
        )
        for h in handles:
            rt.unregister(h)
    raw_s = rt.now
    raw_transfers = rt.trace.n_transfers
    rt.shutdown()
    return ContainerStudyResult(
        calls=calls,
        smart_s=smart_s,
        smart_transfers=smart_transfers,
        raw_s=raw_s,
        raw_transfers=raw_transfers,
    )


def format_container_study(result: ContainerStudyResult) -> str:
    return table(
        f"ABL2: {result.calls} repeated GPU spmv calls",
        ("parameters", "makespan (ms)", "transfers"),
        [
            ("smart containers", f"{result.smart_s * 1e3:.3f}",
             result.smart_transfers),
            ("raw, copied every call", f"{result.raw_s * 1e3:.3f}",
             result.raw_transfers),
        ],
        [f"container speedup: {result.speedup:.2f}x "
         "(locality reuse across invocations)"],
    )


# ---------------------------------------------------------------------------
# ABL3: user-guided static narrowing vs full dynamic composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NarrowingStudyResult:
    calls: int
    size: int
    dynamic_s: float
    narrowed_s: float
    dynamic_wrong_picks: int

    @property
    def speedup(self) -> float:
        return self.dynamic_s / self.narrowed_s


def narrowing_study(
    size: int = 1024, calls: int = 12, seed: int = 0
) -> NarrowingStudyResult:
    """Large data-parallel sgemm: the programmer statically knows the
    GPU wins, so narrowing to CUDA removes the dynamic-selection
    calibration cost and the risk of wrong picks (section IV-A)."""
    a, b, c = gemm_inputs(size, size, size, seed=seed)

    def measure(codelet, scheduler):
        rt = Runtime(platform_c2050(), scheduler=scheduler, seed=seed,
                     run_kernels=False)
        ha = rt.register(a, "A")
        hb = rt.register(b, "B")
        hc = rt.register(c.copy(), "C")
        for _ in range(calls):
            rt.submit(
                codelet,
                [(ha, "r"), (hb, "r"), (hc, "rw")],
                ctx={"m": size, "n": size, "k": size},
                scalar_args=(size, size, size, 1.0, 0.0),
            )
        elapsed = rt.wait_for_all()
        wrong = sum(
            1 for rec in rt.trace.tasks if rec.arch != "cuda"
        )
        rt.shutdown()
        return elapsed, wrong

    full = lower_component(sgemm.INTERFACE, sgemm.IMPLEMENTATIONS)
    narrowed = full.restricted(["sgemm_cublas"])
    dynamic_s, wrong = measure(full, "dmda")
    narrowed_s, _ = measure(narrowed, "eager")
    return NarrowingStudyResult(
        calls=calls,
        size=size,
        dynamic_s=dynamic_s,
        narrowed_s=narrowed_s,
        dynamic_wrong_picks=wrong,
    )


def format_narrowing_study(result: NarrowingStudyResult) -> str:
    return table(
        f"ABL3: {result.calls} sgemm({result.size}) calls, GPU statically "
        "known best",
        ("composition", "makespan (ms)", "non-CUDA picks"),
        [
            ("full dynamic (dmda)", f"{result.dynamic_s * 1e3:.3f}",
             result.dynamic_wrong_picks),
            ("user-guided narrowing", f"{result.narrowed_s * 1e3:.3f}",
             "0 (CUDA only)"),
        ],
        [f"narrowing speedup: {result.speedup:.2f}x on a cold model"],
    )


# ---------------------------------------------------------------------------
# ABL4: optimization goal — execution time vs energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyStudyResult:
    calls: int
    time_goal_makespan_s: float
    time_goal_energy_j: float
    energy_goal_makespan_s: float
    energy_goal_energy_j: float

    @property
    def energy_saving_percent(self) -> float:
        return 100.0 * (1 - self.energy_goal_energy_j / self.time_goal_energy_j)

    @property
    def slowdown(self) -> float:
        return self.energy_goal_makespan_s / self.time_goal_makespan_s


def energy_study(calls: int = 24, n: int = 2048, seed: int = 0) -> EnergyStudyResult:
    """The Needleman-Wunsch aligner under both optimization goals.

    nw's wavefront launches leave the GPU only ~2x faster than the
    OpenMP gang, while the C2050 burns ~3x the gang's power — the regime
    where ``min_energy`` legitimately changes the placement.
    """
    from repro.apps import nw

    def run(objective):
        rt = Runtime(
            platform_c2050(),
            scheduler="dmda",
            seed=seed,
            run_kernels=False,
            scheduler_options={"objective": objective},
        )
        codelet = lower_component(nw.INTERFACE, nw.IMPLEMENTATIONS)
        handles = []
        for i in range(4):  # four independent alignments
            s1 = np.zeros(n, dtype=np.int32)
            s2 = np.zeros(n, dtype=np.int32)
            score = np.zeros((n + 1) * (n + 1), dtype=np.int32)
            handles.append(
                (
                    rt.register(s1, f"s1_{i}"),
                    rt.register(s2, f"s2_{i}"),
                    rt.register(score, f"score{i}"),
                )
            )
        for c in range(calls):
            h1, h2, hs = handles[c % 4]
            rt.submit(
                codelet,
                [(h1, "r"), (h2, "r"), (hs, "w")],
                ctx={"n": n, "penalty": 2},
                scalar_args=(n, 2),
            )
        makespan = rt.wait_for_all()
        energy = rt.trace.total_energy_j
        rt.shutdown()
        return makespan, energy

    m_time, e_time = run("min_exec_time")
    m_energy, e_energy = run("min_energy")
    return EnergyStudyResult(
        calls=calls,
        time_goal_makespan_s=m_time,
        time_goal_energy_j=e_time,
        energy_goal_makespan_s=m_energy,
        energy_goal_energy_j=e_energy,
    )


def format_energy_study(result: EnergyStudyResult) -> str:
    return table(
        f"ABL4: optimization goal on {result.calls} nw calls",
        ("goal", "makespan (ms)", "energy (J)"),
        [
            ("min_exec_time", f"{result.time_goal_makespan_s * 1e3:.3f}",
             f"{result.time_goal_energy_j:.3f}"),
            ("min_energy", f"{result.energy_goal_makespan_s * 1e3:.3f}",
             f"{result.energy_goal_energy_j:.3f}"),
        ],
        [f"energy saving: {result.energy_saving_percent:.1f}% for a "
         f"{result.slowdown:.2f}x slowdown"],
    )


# ---------------------------------------------------------------------------
# ABL5: multi-GPU scaling of hybrid SpMV
# ---------------------------------------------------------------------------

def multigpu_study(
    matrix: str = "Simulation",
    scale: float = 0.5,
    n_chunks: int = 32,
    seed: int = 0,
) -> dict[str, float]:
    """Hybrid SpMV makespan on 1-GPU vs 2-GPU machines."""
    mat = make_matrix(matrix, seed=seed, scale=scale)
    results: dict[str, float] = {}
    for label, machine_factory in (
        ("cpus+1gpu", lambda: platform_c2050(n_cpu_cores=5)),
        ("cpus+2gpu", lambda: platform_dual_c2050(n_cpu_cores=6)),
    ):
        perf = PerfModel()
        for rep, measure in ((0, False), (1, True)):
            rt = Runtime(
                machine_factory(), scheduler="dmda", seed=seed + rep,
                perfmodel=perf, run_kernels=False,
            )
            codelet = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS).without(
                ["spmv_openmp"]
            )
            hv = rt.register(mat.values, "values")
            hc = rt.register(mat.colidxs, "colidxs")
            hp = rt.register(mat.rowptr, "rowptr")
            hx = rt.register(np.ones(mat.ncols, dtype=np.float32), "x")
            hy = rt.register(np.zeros(mat.nrows, dtype=np.float32), "y")
            spmv.submit_partitioned(
                rt, codelet, hv, hc, hp, hx, hy, mat.rowptr, mat.ncols, n_chunks
            )
            rt.unpartition(hy)
            elapsed = rt.shutdown()
            if measure:
                results[label] = elapsed
    return results


def format_multigpu_study(results: dict[str, float]) -> str:
    one = results["cpus+1gpu"]
    two = results["cpus+2gpu"]
    return table(
        "ABL5: hybrid SpMV multi-GPU scaling",
        ("machine", "makespan (ms)"),
        [("4 CPUs + 1 GPU", f"{one * 1e3:.3f}"),
         ("4 CPUs + 2 GPU", f"{two * 1e3:.3f}")],
        [f"second-GPU speedup: {one / two:.2f}x"],
    )


# ---------------------------------------------------------------------------
# ABL6: multi-stage composition (paper section III)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiStageResult:
    calls: int
    size: int
    pure_static_s: float
    static_pick: str
    multistage_s: float
    narrowed_to: tuple[str, ...]
    pure_dynamic_s: float


def multistage_study(
    calls: int = 80, nnz: int = 50_000, nrows: int = 10_000, seed: int = 0
) -> MultiStageResult:
    """Pure-static vs multi-stage vs pure-dynamic composition on a
    streaming spmv workload (fresh operands every call).

    Static dispatch tables come from prediction functions that model the
    *kernel* only, and for spmv the GPU kernel beats every CPU kernel —
    so both pure-static and statically-narrowed multi-stage composition
    keep paying PCIe transfers on every streaming call and *drop the
    OpenMP variant* that actually wins once transfers count.  Only fully
    dynamic composition, whose history models observe real (transfer-
    inclusive) behaviour, discovers it.  This is the quantified argument
    for the paper's design choice that "dynamic composition is the
    default composition mechanism in PEPPHER".
    """
    from repro.composer.ir import ComponentNode
    from repro.composer.static_comp import build_dispatch_table

    node = ComponentNode(
        interface=spmv.INTERFACE, implementations=list(spmv.IMPLEMENTATIONS)
    )
    table = build_dispatch_table(node, platform_c2050(), points_per_param=3)
    ctx = {"nnz": nnz, "nrows": nrows}
    static_pick = table.lookup(ctx)
    winners = tuple(sorted(table.winners()))
    full = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS)

    def run(codelet, scheduler):
        rt = Runtime(
            platform_c2050(), scheduler=scheduler, seed=seed, run_kernels=False
        )
        for _ in range(calls):
            # streaming: fresh operands per call, no cross-call locality
            operands, scalars = spmv.training_operands(ctx, rt)
            rt.submit(
                codelet, operands, ctx=dict(ctx), scalar_args=scalars, sync=True
            )
            rt.unregister(operands[-1][0])  # flush the fresh result home
        elapsed = rt.now
        rt.shutdown()
        return elapsed

    pure_static = run(full.restricted([static_pick]), "eager")
    multistage = run(full.restricted(list(winners)), "dmda")
    pure_dynamic = run(full, "dmda")
    return MultiStageResult(
        calls=calls,
        size=nnz,
        pure_static_s=pure_static,
        static_pick=static_pick,
        multistage_s=multistage,
        narrowed_to=winners,
        pure_dynamic_s=pure_dynamic,
    )


def format_multistage_study(result: MultiStageResult) -> str:
    return table(
        f"ABL6: composition stages on {result.calls} streaming "
        f"spmv(nnz={result.size}) calls",
        ("composition", "variants", "makespan (ms)"),
        [
            ("pure static", result.static_pick,
             f"{result.pure_static_s * 1e3:.3f}"),
            ("multi-stage (dmda)", "+".join(result.narrowed_to),
             f"{result.multistage_s * 1e3:.3f}"),
            ("pure dynamic (dmda)", "all", f"{result.pure_dynamic_s * 1e3:.3f}"),
        ],
        ["expected: kernel-only predictions keep the GPU pick (and drop the "
         "OpenMP variant) in both static modes; only fully dynamic composition "
         "discovers the transfer-inclusive winner - hence dynamic by default"],
    )
