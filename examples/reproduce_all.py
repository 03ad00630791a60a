"""Reproduce the paper's full evaluation in one command.

Runs every experiment harness (Table I, Figures 3/5/6/7, the §V-E
overhead micro-benchmark and the six ablations) and writes a combined
report to ``reproduction_report.txt`` (or the path given as argv[1]).

Equivalent to ``pytest benchmarks/test_*.py`` but as a plain script: at
full size it runs each experiment with the benchmark's arguments and
renders it with the same ``format_*`` printer, so its tables are the
ones in EXPERIMENTS.md.  ``--quick`` runs small sizes for smoke tests.

Run:  python examples/reproduce_all.py [output.txt] [--quick]
"""

import sys
import time
from pathlib import Path

from repro.experiments import ablations, fig3, fig5, fig6, fig7, overhead, table1
from repro.report import render_all


def main() -> None:
    args = [a for a in sys.argv[1:]]
    quick = "--quick" in args
    args = [a for a in args if a != "--quick"]
    out_path = args[0] if args else "reproduction_report.txt"
    scale = 0.2 if quick else 1.0
    fig6_scale = 0.25 if quick else 1.0
    fig7_steps = 60 if quick else 588

    sections: list[str] = []
    t0 = time.time()

    def section(title, text):
        print(f"== {title} ({time.time() - t0:.1f}s elapsed)")
        sections.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")

    section("Table I — programmer LOC", table1.format_table(table1.run()))
    section("Figure 3 — smart-container copy elision", fig3.format_result(fig3.run()))
    fig5_rows = fig5.run(scale=scale, verify=quick)
    section("Figure 5 — hybrid SpMV vs direct CUDA", fig5.format_result(fig5_rows))
    fig6_results = []
    for platform in ("c2050", "c1060"):
        result = fig6.run(platform, size_scale=fig6_scale)
        fig6_results.append(result)
        section(
            f"Figure 6 — dynamic scheduling ({platform})",
            fig6.format_result(result),
        )
    fig7_points = fig7.run(steps=fig7_steps, verify=quick)
    section("Figure 7 — ODE solver overhead", fig7.format_result(fig7_points))
    section(
        "Section V-E — per-task runtime overhead",
        overhead.format_result(overhead.run()),
    )
    section(
        "ABL1 — scheduling policies",
        ablations.format_scheduler_study(
            ablations.scheduler_study(scale=scale, matrix="Simulation")
        ),
    )
    section(
        "ABL2 — smart containers vs raw parameters",
        ablations.format_container_study(
            ablations.container_study(nrows=100_000 if quick else 500_000)
        ),
    )
    section(
        "ABL3 — user-guided static narrowing",
        ablations.format_narrowing_study(ablations.narrowing_study()),
    )
    section(
        "ABL4 — optimization goal (time vs energy)",
        ablations.format_energy_study(ablations.energy_study()),
    )
    section(
        "ABL5 — multi-GPU scaling",
        ablations.format_multigpu_study(ablations.multigpu_study(scale=scale)),
    )
    section(
        "ABL6 — composition stages (static / multi-stage / dynamic)",
        ablations.format_multistage_study(
            ablations.multistage_study(calls=20 if quick else 80)
        ),
    )

    report = "\n".join(sections)
    with open(out_path, "w") as fh:
        fh.write(report)
    figures = render_all(
        Path(out_path).parent / "figures",
        fig5_rows=fig5_rows,
        fig6_results=fig6_results,
        fig7_points=fig7_points,
    )
    print(f"\nfull report written to {out_path} ({time.time() - t0:.1f}s total)")
    print("figures: " + ", ".join(str(p) for p in figures))


if __name__ == "__main__":
    main()
