"""Runge-Kutta ODE solver (LibSolve stand-in).

The paper PEPPHERizes the Runge-Kutta solver from Korch & Rauber's
LibSolve library: 9 distinct components invoked ~10600 times over one
integration, with tight data dependencies between component calls that
make execution almost sequential — the stress test for per-invocation
runtime overhead (Figure 7) and the largest row of the LOC study
(Table I).

We integrate a 1D Brusselator-like reaction-diffusion system with a
low-storage (2N-register) Runge-Kutta scheme (Carpenter-Kennedy RK4(5)),
decomposed into the classic LibSolve vector operations, one PEPPHER
component each:

===============  =========================================================
component        operation
===============  =========================================================
ode_init         initial condition fill
ode_rhs          k = f(t, y)                      (the expensive stage)
ode_accum        du = a * du + h * k              (stage accumulator)
ode_update       y += b * du                      (solution update)
ode_err_accum    err += c * du                    (embedded error build)
ode_reset        v = 0                            (error reset per step)
ode_norm         result = weighted RMS of err     (reduction -> scalar)
ode_copy         dst = src                        (checkpointing)
ode_output       sample = y[::stride]             (observable extraction)
===============  =========================================================

The solver driver is parameterised by an *invoke table* mapping component
names to callables with the entry-wrapper signature, so the same driver
runs through tool-generated stubs, hand-written runtime code, or plain
local kernels.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.apps._ifhelp import interface_from_decl
from repro.apps.costkit import gpu_time, ncores_of, openmp_time, serial_time
from repro.components.context import ContextParamDecl
from repro.components.implementation import ImplementationDescriptor
from repro.components.interface import InterfaceDescriptor
from repro.hw.devices import AccessPattern

#: Carpenter-Kennedy low-storage RK4(5) coefficients
CK_A = (0.0, -0.4178904745, -1.192151694643, -1.697784692471, -1.514183444257)
CK_B = (0.1496590219993, 0.3792103129999, 0.8229550293869, 0.6994504559488, 0.1530572479681)
#: weights of the embedded error accumulator (synthetic pair)
CK_C = (0.02, -0.01, 0.015, -0.02, 0.005)

#: Brusselator reaction parameters
_BR_A, _BR_B, _DIFF = 1.0, 3.0, 0.02


# ---------------------------------------------------------------------------
# component declarations
# ---------------------------------------------------------------------------

_DECLS: dict[str, tuple[str, dict]] = {
    "ode_init": (
        "void ode_init(float* y, int n);",
        {"write_params": ("y",)},
    ),
    "ode_rhs": (
        "void ode_rhs(const float* y, float* k, int n, float t);",
        {"write_params": ("k",)},
    ),
    "ode_accum": (
        "void ode_accum(float* du, const float* k, float a, float h, int n);",
        {"rw_params": ("du",)},
    ),
    "ode_update": (
        "void ode_update(float* y, const float* du, float b, int n);",
        {"rw_params": ("y",)},
    ),
    "ode_err_accum": (
        "void ode_err_accum(float* err, const float* du, float c, int n);",
        {"rw_params": ("err",)},
    ),
    "ode_reset": (
        "void ode_reset(float* v, int n);",
        {"write_params": ("v",)},
    ),
    "ode_norm": (
        "void ode_norm(const float* err, const float* y, float* result, int n);",
        {"write_params": ("result",)},
    ),
    "ode_copy": (
        "void ode_copy(const float* src, float* dst, int n);",
        {"write_params": ("dst",)},
    ),
    "ode_output": (
        "void ode_output(const float* y, float* sample, int n, int stride);",
        {"write_params": ("sample",)},
    ),
}


def _iface(name: str) -> InterfaceDescriptor:
    decl, kw = _DECLS[name]
    return interface_from_decl(
        decl,
        context=(ContextParamDecl("n", "int", minimum=2, maximum=1 << 22),),
        **kw,
    )


INTERFACES: dict[str, InterfaceDescriptor] = {name: _iface(name) for name in _DECLS}


# ---------------------------------------------------------------------------
# kernels (shared computation across variants)
# ---------------------------------------------------------------------------

def ode_init_kernel(y, n):
    idx = np.arange(n)
    y[:] = (1.0 + 0.5 * np.sin(2.0 * np.pi * idx / n)).astype(y.dtype)


def ode_rhs_kernel(y, k, n, t):
    # Brusselator-like reaction + diffusion on a ring
    left = np.roll(y, 1)
    right = np.roll(y, -1)
    k[:] = (
        _BR_A
        + y * y * (_BR_B / (1.0 + y * y))
        - y
        + _DIFF * (left - 2.0 * y + right)
    ).astype(k.dtype)


def ode_accum_kernel(du, k, a, h, n):
    du *= a
    du += h * k


def ode_update_kernel(y, du, b, n):
    y += b * du


def ode_err_accum_kernel(err, du, c, n):
    err += c * du


def ode_reset_kernel(v, n):
    v[:] = 0.0


def ode_norm_kernel(err, y, result, n):
    scale = 1e-6 + 1e-3 * np.abs(y)
    result[0] = float(np.sqrt(np.mean((err / scale) ** 2)))


def ode_copy_kernel(src, dst, n):
    dst[:] = src


def ode_output_kernel(y, sample, n, stride):
    m = len(sample)
    sample[:] = y[:: int(stride)][:m]


# ---------------------------------------------------------------------------
# cost models — all components are streaming vector operations
# ---------------------------------------------------------------------------

def _vec_cost(flops_per_elem: float, bytes_per_elem: float):
    def make(kind: str):
        if kind == "cpu":

            def cost(ctx, device):
                n = float(ctx["n"])
                return serial_time(
                    device, flops_per_elem * n, bytes_per_elem * n,
                    AccessPattern.REGULAR,
                )

        elif kind == "openmp":

            def cost(ctx, device):
                n = float(ctx["n"])
                return openmp_time(
                    device, ncores_of(ctx), flops_per_elem * n,
                    bytes_per_elem * n, AccessPattern.REGULAR,
                )

        else:

            def cost(ctx, device):
                n = float(ctx["n"])
                return gpu_time(
                    device, flops_per_elem * n, bytes_per_elem * n,
                    AccessPattern.REGULAR, library_factor=0.9,
                )

        return cost

    return make


_COST_SHAPES = {
    "ode_init": _vec_cost(3.0, 4.0),
    "ode_rhs": _vec_cost(14.0, 16.0),
    "ode_accum": _vec_cost(3.0, 12.0),
    "ode_update": _vec_cost(2.0, 12.0),
    "ode_err_accum": _vec_cost(2.0, 12.0),
    "ode_reset": _vec_cost(0.5, 4.0),
    "ode_norm": _vec_cost(6.0, 8.0),
    "ode_copy": _vec_cost(0.5, 8.0),
    "ode_output": _vec_cost(0.5, 8.0),
}

# module-level cost functions so descriptors can reference them by name
for _name, _make in _COST_SHAPES.items():
    globals()[f"{_name}_cost_cpu"] = _make("cpu")
    globals()[f"{_name}_cost_openmp"] = _make("openmp")
    globals()[f"{_name}_cost_cuda"] = _make("cuda")


def _impls(name: str) -> list[ImplementationDescriptor]:
    mod = "repro.apps.odesolver"
    out = []
    for platform, suffix in (
        ("cpu_serial", "cpu"),
        ("openmp", "openmp"),
        ("cuda", "cuda"),
    ):
        out.append(
            ImplementationDescriptor(
                name=f"{name}_{suffix}",
                provides=name,
                platform=platform,
                sources=(f"{name}_{suffix}.{'cu' if suffix == 'cuda' else 'cpp'}",),
                kernel_ref=f"{mod}:{name}_kernel",
                cost_ref=f"{mod}:{name}_cost_{suffix}",
                prediction_ref=f"{mod}:{name}_cost_{suffix}",
            )
        )
    return out


IMPLEMENTATIONS: dict[str, list[ImplementationDescriptor]] = {
    name: _impls(name) for name in _DECLS
}

COMPONENT_NAMES = tuple(_DECLS)


def register(repo) -> None:
    """Register all nine solver components."""
    for name in COMPONENT_NAMES:
        repo.add_interface(INTERFACES[name])
        for impl in IMPLEMENTATIONS[name]:
            repo.add_implementation(impl)


# ---------------------------------------------------------------------------
# the solver driver
# ---------------------------------------------------------------------------

def solve(
    invoke: Mapping[str, Callable],
    containers: Mapping[str, object],
    n: int,
    steps: int = 588,
    h: float = 1e-3,
    sample_every: int = 10,
    read_norm: Callable[[], float] | None = None,
) -> int:
    """Drive one integration through component entry points.

    ``invoke[name](...)`` must accept the component's C-signature
    arguments (containers/handles for operands).  ``containers`` provides
    the operand objects: ``y``, ``k``, ``du``, ``err``, ``norm`` (length
    1), ``sample``.  Returns the number of component invocations.

    The dependency structure is intentionally tight (each stage consumes
    the previous stage's output), so asynchronous submission yields an
    almost sequential schedule — as the paper observes for this app.
    """
    y = containers["y"]
    k = containers["k"]
    du = containers["du"]
    err = containers["err"]
    norm = containers["norm"]
    sample = containers["sample"]
    calls = 0
    invoke["ode_init"](y, n)
    calls += 1
    invoke["ode_copy"](y, du, n)  # du starts as a copy, then is scaled out
    calls += 1
    t = 0.0
    for step in range(steps):
        invoke["ode_reset"](err, n)
        calls += 1
        for stage in range(5):
            invoke["ode_rhs"](y, k, n, t + h * stage / 5.0)
            invoke["ode_accum"](du, k, CK_A[stage], h, n)
            invoke["ode_update"](y, du, CK_B[stage], n)
            calls += 3
        invoke["ode_err_accum"](err, du, CK_C[step % 5], n)
        invoke["ode_norm"](err, y, norm, n)
        calls += 2
        if read_norm is not None:
            read_norm()  # host inspects the step error (blocking read)
        if (step + 1) % sample_every == 0:
            invoke["ode_output"](y, sample, n, max(n // max(len_of(sample), 1), 1))
            calls += 1
        t += h
    return calls


def len_of(obj) -> int:
    """Length of a container or array operand."""
    try:
        return len(obj)
    except TypeError:
        return int(getattr(obj, "size", 0))


def local_invoke_table() -> dict[str, Callable]:
    """Kernels callable directly on NumPy arrays (no runtime) —
    the 'sequential legacy application' starting point of Figure 1."""
    return {
        "ode_init": lambda y, n: ode_init_kernel(np.asarray(y), n),
        "ode_rhs": lambda y, k, n, t: ode_rhs_kernel(np.asarray(y), np.asarray(k), n, t),
        "ode_accum": lambda du, k, a, h, n: ode_accum_kernel(
            np.asarray(du), np.asarray(k), a, h, n
        ),
        "ode_update": lambda y, du, b, n: ode_update_kernel(
            np.asarray(y), np.asarray(du), b, n
        ),
        "ode_err_accum": lambda err, du, c, n: ode_err_accum_kernel(
            np.asarray(err), np.asarray(du), c, n
        ),
        "ode_reset": lambda v, n: ode_reset_kernel(np.asarray(v), n),
        "ode_norm": lambda err, y, r, n: ode_norm_kernel(
            np.asarray(err), np.asarray(y), np.asarray(r), n
        ),
        "ode_copy": lambda s, d, n: ode_copy_kernel(np.asarray(s), np.asarray(d), n),
        "ode_output": lambda y, s, n, stride: ode_output_kernel(
            np.asarray(y), np.asarray(s), n, stride
        ),
    }


def reference_solution(n: int, steps: int, h: float = 1e-3) -> np.ndarray:
    """Plain NumPy integration (oracle for all execution paths)."""
    y = np.empty(n, dtype=np.float32)
    ode_init_kernel(y, n)
    du = y.copy()
    k = np.empty_like(y)
    t = 0.0
    for _ in range(steps):
        for stage in range(5):
            ode_rhs_kernel(y, k, n, t + h * stage / 5.0)
            ode_accum_kernel(du, k, CK_A[stage], h, n)
            ode_update_kernel(y, du, CK_B[stage], n)
        t += h
    return y
