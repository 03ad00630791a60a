"""Figure 6: OpenMP vs CUDA vs tool-generated performance-aware code.

Nine applications, two platforms (6a: C2050, 6b: C1060), execution time
averaged over problem sizes.  Expected shape: TGPA tracks the best
static choice everywhere (and sometimes beats it by adapting per size);
the OpenMP/CUDA winner differs per app and shifts between platforms.
"""

import pytest

from repro.experiments import fig6
from repro.experiments.runner import table


def _check(result: fig6.Fig6Result):
    norm = result.normalised()
    for app, modes in norm.items():
        best_static = min(modes["openmp"], modes["cuda"])
        # TGPA (normalised to 1.0) within 25% of the best static build
        assert best_static > 0.75, (result.platform, app, modes)


@pytest.mark.parametrize("platform", ["c2050", "c1060"])
def test_fig6_dynamic_scheduling(benchmark, report, platform):
    result = benchmark.pedantic(
        fig6.run, kwargs={"platform": platform}, rounds=1, iterations=1
    )
    report(f"fig6_{platform}", fig6.format_result(result))
    from repro.report import fig6_chart, save_svg
    from pathlib import Path

    RESULTS_DIR = Path(__file__).parent / "results"
    save_svg(fig6_chart(result).to_svg(), RESULTS_DIR / f"fig6_{platform}.svg")
    assert set(result.means) == set(fig6.APP_ORDER)
    _check(result)


def test_fig6_winner_flips_for_irregular_apps(benchmark, report):
    """The architectural adjustment the paper highlights: rankings shift
    between the cached C2050 and the cache-less C1060."""
    apps = ("bfs", "particlefilter", "hotspot", "sgemm")

    def both():
        return (
            fig6.run("c2050", apps=apps).normalised(),
            fig6.run("c1060", apps=apps).normalised(),
        )

    r2050, r1060 = benchmark.pedantic(both, rounds=1, iterations=1)

    def winner(row: dict) -> str:
        return "CUDA" if row["cuda"] < row["openmp"] else "OpenMP"

    report(
        "fig6_winner_flips",
        table(
            "Figure 6 winner comparison (OpenMP vs CUDA) across platforms",
            ("app", "c2050", "c1060"),
            [(app, winner(r2050[app]), winner(r1060[app])) for app in apps],
        ),
    )
    # regular compute-bound apps stay GPU-won on both platforms
    assert r2050["sgemm"]["cuda"] < r2050["sgemm"]["openmp"]
    assert r1060["sgemm"]["cuda"] < r1060["sgemm"]["openmp"]
    # the irregular app flips to the CPU gang on the cache-less GPU
    assert r2050["bfs"]["cuda"] < r2050["bfs"]["openmp"]
    assert r1060["bfs"]["openmp"] < r1060["bfs"]["cuda"]
