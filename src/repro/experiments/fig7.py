"""Figure 7: composition-tool overhead on the Runge-Kutta ODE solver.

Execution time versus problem size (250..1000) for three builds of the
LibSolve-style solver — an application with 9 components and ~10600
invocations whose tight data dependencies make execution almost
sequential, the worst case for per-invocation overhead:

- ``Direct - CPU``: hand-written runtime code, CPU variants only;
- ``Direct - CUDA``: hand-written runtime code, CUDA variants only;
- ``Composition Tool - CUDA``: the tool-generated application (generated
  stubs + registry + smart containers), CUDA variants only.

Expected shape (log-scale y): CPU far above CUDA at large sizes; the
tool curve hugs the direct-CUDA curve — the generated composition code's
runtime-task-handling overhead is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import mains
from repro.apps import odesolver as ode
from repro.composer.recipe import Recipe
from repro.direct import odesolver_direct
from repro.experiments.runner import table

#: the paper's x-axis: problem sizes of the ODE system
SIZES = (250, 500, 750, 1000)


def system_dim(size: int) -> int:
    """ODE system dimension for a Figure-7 problem size.

    LibSolve's BRUSS2D problem has ~2*N^2 equations for grid size N; we
    scale that down linearly (2 * N * 32) to keep the NumPy kernels fast
    while preserving the size ordering and the bandwidth-bound regime.
    """
    return 2 * size * 32


@dataclass(frozen=True)
class Fig7Point:
    size: int
    direct_cpu_s: float
    direct_cuda_s: float
    tool_cuda_s: float
    invocations: int

    @property
    def tool_overhead_percent(self) -> float:
        """Relative cost of the generated code vs hand-written CUDA."""
        return 100.0 * (self.tool_cuda_s - self.direct_cuda_s) / self.direct_cuda_s


def run(
    sizes: tuple[int, ...] = SIZES,
    steps: int = 588,
    seed: int = 0,
    verify: bool = False,
) -> list[Fig7Point]:
    """Measure the three curves.

    ``steps=588`` yields ~10600 component invocations, matching the
    paper's 10613 calls to 9 components.
    """
    # the tool build is composed once and reused across sizes
    app = mains.compose_app(
        "odesolver",
        recipe=Recipe(enable_only=tuple(
            f"{name}_cuda" for name in ode.COMPONENT_NAMES
        )),
    )
    points = []
    for size in sizes:
        n = system_dim(size)
        _, t_cpu, calls = odesolver_direct.main(
            n=n, steps=steps, variants=("cpu",), scheduler="eager", seed=seed
        )
        y_direct, t_cuda, _ = odesolver_direct.main(
            n=n, steps=steps, variants=("cuda",), scheduler="eager", seed=seed
        )
        y_tool, t_tool, _ = mains.odesolver_main(
            app=app, n=n, steps=steps, seed=seed
        )
        if verify:
            ref = ode.reference_solution(n, steps)
            if not (
                np.allclose(y_direct, ref, rtol=1e-3, atol=1e-4)
                and np.allclose(y_tool, ref, rtol=1e-3, atol=1e-4)
            ):
                raise AssertionError(f"size {size}: solver results diverge")
        points.append(
            Fig7Point(
                size=size,
                direct_cpu_s=t_cpu,
                direct_cuda_s=t_cuda,
                tool_cuda_s=t_tool,
                invocations=calls,
            )
        )
    return points


def format_result(points: list[Fig7Point]) -> str:
    return table(
        "Figure 7: Runge-Kutta ODE solver execution time vs problem size "
        f"({points[0].invocations if points else '?'} invocations of 9 "
        "components per run; log-scale in the paper)",
        ("size", "Direct-CPU (s)", "Direct-CUDA (s)", "Tool-CUDA (s)",
         "tool overhead"),
        [
            (p.size, f"{p.direct_cpu_s:.4f}", f"{p.direct_cuda_s:.4f}",
             f"{p.tool_cuda_s:.4f}", f"{p.tool_overhead_percent:.2f}%")
            for p in points
        ],
        ["expected shape: CPU >> CUDA at size; tool-CUDA ~ direct-CUDA "
         "(negligible overhead)"],
    )
