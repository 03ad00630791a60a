"""Experiment harnesses reproducing every table and figure of the paper.

Each module owns one artefact (see DESIGN.md's per-experiment index) and
exposes ``run(...) -> result`` plus a ``format_*`` function that renders
the rows/series the paper reports as a Markdown table, through the one
renderer :func:`~repro.experiments.runner.table`.  The pytest benchmarks
under ``benchmarks/`` are thin wrappers over these harnesses and write
the rendered tables into EXPERIMENTS.md.  The modules run as
``python -m repro.experiments.<name> [--smoke]`` also expose
``study(smoke) -> Study``; :mod:`~repro.experiments.runner` is their
shared command line.

========================  =====================================
module                    paper artefact
========================  =====================================
``table1``                Table I (programmer LOC, tool vs direct)
``fig3``                  Figure 3 (smart-container copy elision)
``fig5``                  Figure 5 (hybrid SpMV speedups)
``fig6``                  Figure 6 (OpenMP/CUDA/TGPA, two platforms)
``fig7``                  Figure 7 (ODE solver runtime overhead)
``overhead``              section V-E (per-task runtime overhead)
``ablations``             scheduler / container / narrowing studies
``faults``                fault-injection / recovery resilience study
``backends``              analytical-vs-measured exec differential
``engine_bench``          engine submit/schedule/complete throughput
========================  =====================================
"""

__all__ = [
    "ablations",
    "backends",
    "engine_bench",
    "faults",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "overhead",
    "table1",
]
