"""LUD: blocked LU decomposition (Rodinia benchmark).

In-place LU factorisation without pivoting, right-looking blocked
algorithm (diagonal factor, triangular panel solves, trailing GEMM
update).  Compute-bound like SGEMM but with a serial dependency chain
along the diagonal, which taxes the GPU's launch overhead — the CPU
variants stay closer than for pure GEMM (Figure 6).

Like every app, it needs NumPy alone: the two triangular panel solves
are ``np.linalg.solve`` calls against the just-factored diagonal block.
"""

from __future__ import annotations

import numpy as np

from repro.apps._ifhelp import interface_from_decl
from repro.apps.costkit import gpu_time, ncores_of, openmp_time, serial_time
from repro.components.context import ContextParamDecl
from repro.components.implementation import ImplementationDescriptor
from repro.hw.devices import AccessPattern

DECLARATION = "void lud(float* A, int n);"

INTERFACE = interface_from_decl(
    DECLARATION,
    rw_params=("A",),
    context=(ContextParamDecl("n", "int", minimum=16, maximum=4096),),
)

#: blocking factor of the right-looking algorithm
BLOCK = 64


def _panels(d, a21, a12):
    """``(A21·U11⁻¹, L11⁻¹·A12)`` for the factored diagonal block ``d``."""
    l21 = np.linalg.solve(np.triu(d).T, a21.T).T
    u12 = np.linalg.solve(np.tril(d, -1) + np.eye(len(d), dtype=d.dtype), a12)
    return l21, u12


def _lud(A, n):
    a = A.reshape(n, n)
    for k0 in range(0, n, BLOCK):
        k1 = min(k0 + BLOCK, n)
        # unblocked factorisation of the diagonal block; every pivot but
        # the matrix's last one is a divisor (the last of a non-final
        # block divides in the L21 panel solve)
        d = a[k0:k1, k0:k1]
        for j in range(k1 - k0 - (k1 == n)):
            pivot = d[j, j]
            if pivot == 0.0:
                raise ZeroDivisionError("LU without pivoting hit a zero pivot")
            d[j + 1:, j] /= pivot
            d[j + 1:, j + 1:] -= np.outer(d[j + 1:, j], d[j, j + 1:])
        if k1 == n:
            break
        # panel solves: L21 = A21 * U11^-1, U12 = L11^-1 * A12
        a[k1:, k0:k1], a[k0:k1, k1:] = _panels(d, a[k1:, k0:k1], a[k0:k1, k1:])
        # trailing update
        a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]


def lud_cpu(A, n):
    """Serial blocked LU."""
    _lud(A, n)


def lud_openmp(A, n):
    """OpenMP-parallel trailing updates (identical results)."""
    _lud(A, n)


def lud_cuda(A, n):
    """Rodinia's CUDA LUD (diagonal/perimeter/internal kernels)."""
    _lud(A, n)


def _flops(ctx) -> float:
    return (2.0 / 3.0) * float(ctx["n"]) ** 3


def _bytes(ctx) -> float:
    n = float(ctx["n"])
    # each trailing block is re-read once per panel step
    return 4.0 * n * n * max(n / BLOCK / 8.0, 1.0)


def cost_cpu(ctx, device) -> float:
    return serial_time(device, _flops(ctx), _bytes(ctx), AccessPattern.REGULAR)


def cost_openmp(ctx, device) -> float:
    return openmp_time(
        device, ncores_of(ctx), _flops(ctx), _bytes(ctx), AccessPattern.REGULAR
    )


def cost_cuda(ctx, device) -> float:
    # three kernel launches per panel step + the serial diagonal chain
    base = gpu_time(
        device, _flops(ctx), _bytes(ctx), AccessPattern.REGULAR, library_factor=1.1
    )
    steps = max(float(ctx["n"]) / BLOCK, 1.0)
    return base + 3.0 * steps * device.launch_overhead_s


IMPLEMENTATIONS = [
    ImplementationDescriptor(
        name="lud_cpu",
        provides="lud",
        platform="cpu_serial",
        sources=("lud_cpu.cpp",),
        kernel_ref="repro.apps.lud:lud_cpu",
        cost_ref="repro.apps.lud:cost_cpu",
        prediction_ref="repro.apps.lud:cost_cpu",
    ),
    ImplementationDescriptor(
        name="lud_openmp",
        provides="lud",
        platform="openmp",
        sources=("lud_openmp.cpp",),
        kernel_ref="repro.apps.lud:lud_openmp",
        cost_ref="repro.apps.lud:cost_openmp",
        prediction_ref="repro.apps.lud:cost_openmp",
    ),
    ImplementationDescriptor(
        name="lud_cuda",
        provides="lud",
        platform="cuda",
        sources=("lud_cuda.cu",),
        kernel_ref="repro.apps.lud:lud_cuda",
        cost_ref="repro.apps.lud:cost_cuda",
        prediction_ref="repro.apps.lud:cost_cuda",
    ),
]


def register(repo) -> None:
    repo.add_interface(INTERFACE)
    for impl in IMPLEMENTATIONS:
        repo.add_implementation(impl)


def make_spd_matrix(n: int, seed: int = 0) -> np.ndarray:
    """Diagonally dominant matrix (LU without pivoting stays stable)."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)).astype(np.float32)
    a += n * np.eye(n, dtype=np.float32)
    return a.reshape(-1)


def reference(A0, n) -> np.ndarray:
    a = A0.reshape(n, n).astype(np.float64).copy()
    for j in range(n - 1):
        a[j + 1:, j] /= a[j, j]
        a[j + 1:, j + 1:] -= np.outer(a[j + 1:, j], a[j, j + 1:])
    return a.reshape(-1).astype(np.float32)
