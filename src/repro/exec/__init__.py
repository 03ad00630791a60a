"""repro.exec — real-concurrency execution backends for codelet kernels.

The engine's discrete-event core models *when* things happen; this
package decides *where the kernel computation actually runs*:

========== ===================== =========================================
backend    concurrency           use when
========== ===================== =========================================
simulated  none (inline)         default; byte-identical to every
                                 earlier release; pure simulation studies
thread     real (GIL-releasing   NumPy/BLAS-heavy kernels; shared memory,
           kernels overlap)      one clock domain, zero copy cost
process    real (separate        Python-bound kernels that hold the GIL;
           interpreters)         operands are shipped and copied back
========== ===================== =========================================

Real backends wall-clock every kernel (``time.perf_counter_ns`` inside
the executing worker) and the engine feeds those measurements into the
performance model under the ``"measured"`` provenance — alongside, never
replacing, the analytical observations — which is what the
analytical-vs-measured differential (``repro.experiments.backends``)
calibrates against.

Entry points::

    from repro.exec import ThreadPoolBackend
    with Session("c2050", exec_backend="thread") as s:   # or an instance
        ...

See ``docs/BACKENDS.md`` for the full matrix and the calibration
workflow.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.exec.base": (
            "ExecFuture",
            "ExecutionBackend",
            "Measurement",
            "make_backend",
            "timed_call",
        ),
        "repro.exec.process": ("ProcessPoolBackend",),
        "repro.exec.simulated": ("SimulatedBackend",),
        "repro.exec.thread": ("ThreadPoolBackend",),
        "repro.exec.validate": (
            "picklability_problem",
            "validate_codelet_picklable",
            "validate_variant_picklable",
        ),
    },
)

__all__ = [
    "ExecFuture",
    "ExecutionBackend",
    "Measurement",
    "ProcessPoolBackend",
    "SimulatedBackend",
    "ThreadPoolBackend",
    "make_backend",
    "picklability_problem",
    "timed_call",
    "validate_codelet_picklable",
    "validate_variant_picklable",
]
