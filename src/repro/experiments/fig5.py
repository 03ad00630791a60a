"""Figure 5: hybrid SpMV vs direct CUDA on six UF matrices.

The paper compares hand-written CUDA (the CUSP kernel, "direct
execution", including host<->device transfer time) against the
tool-generated hybrid-execution code using one CUDA GPU and all four
CPUs in parallel.  Hybrid wins on every matrix (up to ~2.2x) because
splitting the rows between CPUs and GPU both divides the computation and
*reduces the data volume shipped over PCIe* — the GPU-only run is
transfer-bound.

Reproduction notes: the matrices are synthetic stand-ins matching each
UF matrix's dimensions/nnz/structure class (see
:mod:`repro.workloads.sparse`); hybrid runs use the dmda scheduler with
a performance model trained by one warm-up execution (the paper's
measurements are steady-state after StarPU calibration), and the OpenMP
variant is statically narrowed out of the chunked call — partitioned
sub-tasks use the serial-CPU and CUDA variants (section IV-A's
user-guided narrowing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import spmv
from repro.composer.glue import lower_component
from repro.experiments.runner import table
from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.runtime.perfmodel import PerfModel
from repro.workloads.sparse import CSRMatrix, make_matrix, matrix_names

#: "all four CPUs" + the GPU: 5 cores, one driving the CUDA device
N_CPU_CORES = 5
#: row chunks for the partitioned (hybrid) invocation
N_CHUNKS = 24
#: the paper's hybrid-over-direct-CUDA speedups, read off its Figure 5
PAPER_SPEEDUPS = {
    "Chemistry": "~2.2x",
    "Convex": "~1.6x",
    "HB": "~1.2x",
    "Network": "~1.4x",
    "Simulation": "~1.6x",
    "Structural": "~1.9x",
}


@dataclass(frozen=True)
class Fig5Row:
    """One matrix's measurement."""

    matrix: str
    nnz: int
    direct_cuda_s: float
    hybrid_s: float
    gpu_chunks: int
    cpu_chunks: int

    @property
    def speedup(self) -> float:
        return self.direct_cuda_s / self.hybrid_s


def _registered(rt: Runtime, mat: CSRMatrix):
    x = np.ones(mat.ncols, dtype=np.float32)
    y = np.zeros(mat.nrows, dtype=np.float32)
    return (
        rt.register(mat.values, "values"),
        rt.register(mat.colidxs, "colidxs"),
        rt.register(mat.rowptr, "rowptr"),
        rt.register(x, "x"),
        rt.register(y, "y"),
        y,
    )


def run_direct_cuda(mat: CSRMatrix, seed: int = 0, run_kernels: bool = True):
    """Hand-written CUDA execution: one kernel, full transfers included."""
    rt = Runtime(
        platform_c2050(n_cpu_cores=N_CPU_CORES), scheduler="eager", seed=seed,
        run_kernels=run_kernels,
    )
    cuda_only = [i for i in spmv.IMPLEMENTATIONS if i.platform == "cuda"]
    codelet = lower_component(spmv.INTERFACE, cuda_only)
    hv, hc, hp, hx, hy, y = _registered(rt, mat)
    rt.submit(
        codelet,
        [(hv, "r"), (hc, "r"), (hp, "r"), (hx, "r"), (hy, "w")],
        ctx={"nnz": mat.nnz, "nrows": mat.nrows, "ncols": mat.ncols, "first": 0},
        scalar_args=(mat.nnz, mat.nrows, mat.ncols, 0),
        name="spmv",
    )
    rt.acquire(hy, "r")  # result copied back, like the paper's measurement
    elapsed = rt.now
    rt.shutdown()
    return elapsed, y


def run_hybrid(
    mat: CSRMatrix,
    seed: int = 0,
    perfmodel: PerfModel | None = None,
    n_chunks: int = N_CHUNKS,
    run_kernels: bool = True,
):
    """Tool-generated hybrid execution: partitioned sub-tasks on CPUs+GPU."""
    rt = Runtime(
        platform_c2050(n_cpu_cores=N_CPU_CORES),
        scheduler="dmda",
        seed=seed,
        perfmodel=perfmodel,
        run_kernels=run_kernels,
    )
    codelet = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS).without(
        ["spmv_openmp"]
    )
    hv, hc, hp, hx, hy, y = _registered(rt, mat)
    spmv.submit_partitioned(
        rt, codelet, hv, hc, hp, hx, hy, mat.rowptr, mat.ncols, n_chunks
    )
    rt.unpartition(hy)  # gathers chunk results to the host
    elapsed = rt.now
    trace = rt.trace
    model = rt.perfmodel
    rt.shutdown()
    by_arch = trace.tasks_by_arch()
    return elapsed, y, by_arch, model


def run(
    matrices: tuple[str, ...] | None = None,
    scale: float = 1.0,
    seed: int = 0,
    verify: bool = False,
) -> list[Fig5Row]:
    """Measure all six matrices; ``verify`` checks values vs the oracle."""
    rows = []
    for name in matrices or tuple(matrix_names()):
        mat = make_matrix(name, seed=seed, scale=scale)
        run_values = verify
        t_direct, y_direct = run_direct_cuda(mat, seed=seed, run_kernels=run_values)
        # warm-up run trains the performance model (StarPU calibration)
        _, _, _, model = run_hybrid(mat, seed=seed, run_kernels=False)
        t_hybrid, y_hybrid, by_arch, _ = run_hybrid(
            mat, seed=seed + 1, perfmodel=model, run_kernels=run_values
        )
        if verify:
            x = np.ones(mat.ncols, dtype=np.float32)
            ref = spmv.reference(mat.values, mat.colidxs, mat.rowptr, x, mat.nrows)
            if not (
                np.allclose(y_direct, ref, rtol=1e-4)
                and np.allclose(y_hybrid, ref, rtol=1e-4)
            ):
                raise AssertionError(f"matrix {name}: results diverge")
        rows.append(
            Fig5Row(
                matrix=name,
                nnz=mat.nnz,
                direct_cuda_s=t_direct,
                hybrid_s=t_hybrid,
                gpu_chunks=by_arch.get("cuda", 0),
                cpu_chunks=by_arch.get("cpu", 0),
            )
        )
    return rows


def format_result(rows: list[Fig5Row]) -> str:
    return table(
        "Figure 5: SpMV speedup over direct CUDA (hybrid = 4 CPUs + C2050)",
        ("matrix", "nnz", "direct CUDA (ms)", "hybrid (ms)", "speedup",
         "gpu/cpu chunks", "paper"),
        [
            (r.matrix, r.nnz, f"{r.direct_cuda_s * 1e3:.3f}",
             f"{r.hybrid_s * 1e3:.3f}", f"{r.speedup:.2f}x",
             f"{r.gpu_chunks}/{r.cpu_chunks}", PAPER_SPEEDUPS[r.matrix])
            for r in rows
        ],
        ["expected shape: speedup > 1 for every matrix (paper: up to ~2.2x)"],
    )
