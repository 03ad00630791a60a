"""Hybrid SpMV on a dual-GPU machine, with an execution-trace Gantt.

Runs the partitioned SpMV on 4 CPUs + one C2050, then on 4 CPUs + two
C2050s, prints the makespans and a terminal Gantt chart of the dual-GPU
schedule, and writes a Chrome trace (open in chrome://tracing or
https://ui.perfetto.dev).

Uses :class:`repro.Session`, the runtime that builds its machine from a
factory and exports traces: the session is passed wherever a runtime is
expected, and ``restart()`` carries the learned performance model
across repetitions (first run calibrates, second measures warm).

Run:  python examples/multi_gpu.py [scale]
"""

import sys
import tempfile

import numpy as np

from repro import Session
from repro.apps import spmv
from repro.composer.glue import lower_component
from repro.hw.presets import platform_c2050, platform_dual_c2050
from repro.workloads.sparse import make_matrix


def run_hybrid(machine_factory, mat, n_chunks=32, seed=0):
    session = Session(
        machine_factory, scheduler="dmda", seed=seed, run_kernels=False
    )
    codelet = lower_component(spmv.INTERFACE, spmv.IMPLEMENTATIONS).without(
        ["spmv_openmp"]
    )
    last = None
    for rep in range(2):  # first run calibrates, second measures warm
        if rep:
            session.restart()
        hv = session.register(mat.values, "values")
        hc = session.register(mat.colidxs, "colidxs")
        hp = session.register(mat.rowptr, "rowptr")
        hx = session.register(np.ones(mat.ncols, dtype=np.float32), "x")
        hy = session.register(np.zeros(mat.nrows, dtype=np.float32), "y")
        spmv.submit_partitioned(
            session, codelet, hv, hc, hp, hx, hy,
            mat.rowptr, mat.ncols, n_chunks,
        )
        session.unpartition(hy)
        last = (session.now, session)
    return last


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    mat = make_matrix("Simulation", scale=scale)
    print(f"{mat.name}: {mat.nrows} rows, {mat.nnz} nnz\n")

    t1, s1 = run_hybrid(lambda: platform_c2050(n_cpu_cores=5), mat)
    s1.shutdown()
    t2, session = run_hybrid(lambda: platform_dual_c2050(n_cpu_cores=6), mat)
    print(f"4 CPUs + 1 GPU : {t1 * 1e3:8.3f} ms")
    print(f"4 CPUs + 2 GPU : {t2 * 1e3:8.3f} ms   ({t1 / t2:.2f}x)\n")

    print(session.gantt())

    out = tempfile.mktemp(prefix="peppher_trace_", suffix=".json")
    session.save_trace(out)
    session.shutdown()
    print(f"\nChrome trace written to {out}")


if __name__ == "__main__":
    main()
