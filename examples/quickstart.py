"""Quickstart: PEPPHERize one function end to end.

Walks the paper's workflow on a fresh component:

1. declare the functionality as a plain C signature;
2. generate descriptor/implementation skeletons (utility mode);
3. provide the implementation variants (CPU / OpenMP / CUDA) and their
   cost models;
4. compose the application (``compose main.xml`` equivalent);
5. run it through the generated entry-wrapper on smart containers.

Run:  python examples/quickstart.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

# the "component implementation" module the descriptors reference: for a
# script we register it under a known module name
import types

from repro.apps.costkit import gpu_time, ncores_of, openmp_time, serial_time
from repro.components import (
    ContextParamDecl,
    ImplementationDescriptor,
    MainDescriptor,
    Repository,
)
from repro.components.cdecl import parse_declaration, to_interface
from repro.composer import Composer, Recipe, generate_from_decls
from repro.containers import Vector
from repro.hw.devices import AccessPattern


# -- 1. the functionality, as the C declaration a legacy app would have ----
DECL = "void axpy(float a, const float* x, float* y, int n);"


# -- 2. utility mode: show the generated skeleton files ----------------------
def show_utility_mode() -> None:
    decl = parse_declaration(DECL)
    with tempfile.TemporaryDirectory() as tmp:
        created = generate_from_decls([decl], tmp, app_name="axpy_app")
        print("utility mode generated:")
        for path in created:
            print("  ", Path(path).relative_to(tmp))


# -- 3. implementation variants + cost models -------------------------------
def axpy_cpu(a, x, y, n):
    y += a * x


def axpy_openmp(a, x, y, n):
    y += a * x


def axpy_cuda(a, x, y, n):
    y += a * x


def cost_cpu(ctx, device):
    n = float(ctx["n"])
    return serial_time(device, 2 * n, 12 * n, AccessPattern.REGULAR)


def cost_openmp(ctx, device):
    n = float(ctx["n"])
    return openmp_time(device, ncores_of(ctx), 2 * n, 12 * n, AccessPattern.REGULAR)


def cost_cuda(ctx, device):
    n = float(ctx["n"])
    return gpu_time(device, 2 * n, 12 * n, AccessPattern.REGULAR)


def install_kernel_module() -> None:
    """Expose this script's kernels under an importable module name so
    descriptor references (`quickstart_axpy:axpy_cpu`) resolve."""
    module = types.ModuleType("quickstart_axpy")
    for fn in (axpy_cpu, axpy_openmp, axpy_cuda, cost_cpu, cost_openmp, cost_cuda):
        setattr(module, fn.__name__, fn)
    sys.modules["quickstart_axpy"] = module


def main() -> None:
    show_utility_mode()
    install_kernel_module()

    # -- the filled-in descriptors (normally XML on disk) -----------------
    interface = to_interface(parse_declaration(DECL))
    from dataclasses import replace

    interface = replace(
        interface,
        context_params=(ContextParamDecl("n", "int", minimum=1, maximum=1 << 24),),
    )
    repo = Repository()
    repo.add_interface(interface)
    for platform, suffix in (("cpu_serial", "cpu"), ("openmp", "openmp"), ("cuda", "cuda")):
        repo.add_implementation(
            ImplementationDescriptor(
                name=f"axpy_{suffix}",
                provides="axpy",
                platform=platform,
                sources=(f"axpy_{suffix}.cpp",),
                kernel_ref=f"quickstart_axpy:axpy_{suffix}",
                cost_ref=f"quickstart_axpy:cost_{suffix}",
                prediction_ref=f"quickstart_axpy:cost_{suffix}",
            )
        )
    main_desc = MainDescriptor(name="axpy_app", components=("axpy",))
    repo.add_main(main_desc)

    # -- 4. compose ---------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="peppher_quickstart_") as out:
        app = Composer(repo, Recipe()).compose(main_desc, out)
        print(f"\ncomposed {app.name!r}; artefacts: {app.artefact_files()}")
        pep = app.peppher  # imports the generated package

    # -- 5. run through the generated code -----------------------------------
    rt = pep.PEPPHER_INITIALIZE(seed=1)
    n = 1_000_000
    x = Vector(np.ones(n, dtype=np.float32), runtime=rt, name="x")
    y = Vector.zeros(n, runtime=rt, name="y")
    for _ in range(8):
        pep.axpy(2.0, x, y, n)  # asynchronous component invocations
    print("y[0] after 8 async axpy calls:", y[0])  # blocking host read
    print("runtime trace:", rt.trace.summary())
    print("variant selection:", rt.trace.tasks_by_variant())
    pep.PEPPHER_SHUTDOWN()


if __name__ == "__main__":
    main()
