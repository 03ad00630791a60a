"""repro — a reproduction of the PEPPHER composition tool (MuCoCoS/SC 2012).

The package provides:

- :mod:`repro.hw` — a simulated heterogeneous machine (CPUs + GPUs) with
  calibrated analytical device cost models and a virtual clock.
- :mod:`repro.runtime` — a StarPU-like task-based runtime: data handles with
  MSI coherence over memory nodes, implicit dependency inference from data
  access modes, asynchronous task submission and performance-aware
  schedulers, driven by a discrete-event engine.
- :mod:`repro.containers` — PEPPHER smart containers (Scalar, Vector,
  Matrix) that keep operand data coherent across memory units and make
  data accesses from the application program block only when necessary.
- :mod:`repro.components` — the PEPPHER component model: interface /
  implementation / platform / main descriptors (real XML), repositories,
  call contexts, prediction functions, tunables and constraints.
- :mod:`repro.composer` — the composition tool itself: descriptor
  exploration, component-tree IR, generic component expansion, user-guided
  static narrowing, static composition with dispatch tables, and code
  generation (entry/backend wrapper stubs, a ``peppher`` header module and
  a Makefile-analog build plan).
- :mod:`repro.apps` / :mod:`repro.direct` — ten PEPPHERized applications
  (SpMV, SGEMM, Rodinia kernels, a Runge-Kutta ODE solver) in both
  tool-mode and hand-written-runtime form.
- :mod:`repro.exec` — real-concurrency execution backends (thread and
  process pools) behind the codelet API: kernels genuinely overlap, are
  wall-clock timed, and feed the performance model's ``measured``
  provenance; ``Session.submit_async`` exposes an asyncio surface.

See ``DESIGN.md`` for the system inventory and the per-experiment index and
``EXPERIMENTS.md`` for paper-vs-measured results.
"""

from repro._lazy import lazy_exports
from repro._version import __version__

#: headline API, re-exported for convenience and resolved on first use:
#: ``from repro import Runtime, Vector, Composer, Recipe, ...`` imports
#: only the subsystems those names live in
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.components": ("MainDescriptor", "Repository"),
        "repro.composer": ("ComposedApplication", "Composer", "Recipe"),
        "repro.containers": ("Matrix", "Scalar", "Vector"),
        "repro.hw": (
            "MachineDescription",
            "by_name",
            "machine",
            "platform_c1060",
            "platform_c2050",
        ),
        "repro.obs": ("MetricsRegistry", "MetricsSuite"),
        "repro.runtime": ("Runtime",),
        "repro.runtime.events": ("EngineEvents",),
        "repro.session": ("Session",),
        "repro.tuning": ("PerfModelStore",),
        # entry-point subpackages
        "repro.check": ("check",),
        "repro.serve": ("serve",),
    },
)

__all__ = [
    "ComposedApplication",
    "Composer",
    "EngineEvents",
    "MachineDescription",
    "Matrix",
    "MainDescriptor",
    "MetricsRegistry",
    "MetricsSuite",
    "PerfModelStore",
    "Recipe",
    "Repository",
    "Runtime",
    "Scalar",
    "Session",
    "Vector",
    "__version__",
    "by_name",
    "check",
    "machine",
    "platform_c1060",
    "platform_c2050",
    "serve",
]
