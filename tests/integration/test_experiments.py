"""Experiment harnesses reproduce the paper's shapes (small scale)."""

import json
import math

import pytest

from repro.experiments import ablations, fig3, fig5, fig6, fig7, overhead, table1
from repro.experiments.runner import cli


def test_table1_direct_exceeds_tool_for_every_app():
    rows = table1.run()
    assert len(rows) == 10
    for row in rows:
        assert row.direct_loc > row.tool_loc, row.application
        assert 5 <= row.difference_percent <= 150, row.application
    # the ODE solver is the largest application in both columns
    ode_row = next(r for r in rows if r.application == "odesolver")
    assert ode_row.tool_loc == max(r.tool_loc for r in rows)
    assert "Table I" in table1.format_table(rows)


def test_fig3_copy_counts_match_paper_exactly():
    result = fig3.run(n=50_000)
    assert result.smart_copies == 2
    assert result.naive_copies == 7
    assert result.smart_h2d == 0 and result.smart_d2h == 2
    assert result.values_ok
    assert result.readers_overlap
    assert "2 copies" in fig3.format_result(result)


def test_fig5_hybrid_beats_direct_cuda_on_every_matrix():
    rows = fig5.run(scale=0.15, verify=True)
    assert len(rows) == 6
    for row in rows:
        assert row.speedup > 1.0, f"{row.matrix}: {row.speedup:.2f}"
        assert row.cpu_chunks > 0  # CPUs always contribute
    # at this reduced scale dmda may rightly keep the tiniest matrix
    # CPU-only, but the big matrices must be genuinely hybrid
    assert sum(1 for r in rows if r.gpu_chunks > 0) >= 4
    big = max(rows, key=lambda r: r.nnz)
    assert big.gpu_chunks > 0
    assert max(r.speedup for r in rows) > 1.3
    assert "speedup" in fig5.format_result(rows)


@pytest.mark.parametrize("platform", ["c2050", "c1060"])
def test_fig6_tgpa_tracks_best_static(platform):
    apps = ("bfs", "sgemm", "nw", "hotspot")
    result = fig6.run(platform, apps=apps, size_scale=0.25)
    norm = result.normalised()
    for app in apps:
        best_static = min(norm[app]["openmp"], norm[app]["cuda"])
        # TGPA (=1.0 by normalisation) within 25% of the best static
        assert best_static > 0.75, (app, norm[app])
    assert platform in fig6.format_result(result)


def test_fig6_winner_flips_between_platforms():
    apps = ("bfs", "hotspot")
    r2050 = fig6.run("c2050", apps=apps, size_scale=0.25).normalised()
    r1060 = fig6.run("c1060", apps=apps, size_scale=0.25).normalised()
    # hotspot stays GPU-friendly on both machines
    assert r2050["hotspot"]["cuda"] < r2050["hotspot"]["openmp"]
    assert r1060["hotspot"]["cuda"] < r1060["hotspot"]["openmp"]
    # bfs flips: CUDA wins with caches (C2050), OpenMP without (C1060)
    assert r2050["bfs"]["cuda"] < r2050["bfs"]["openmp"]
    assert r1060["bfs"]["openmp"] < r1060["bfs"]["cuda"]


def test_fig7_tool_overhead_negligible():
    points = fig7.run(sizes=(250, 500), steps=40, verify=True)
    for p in points:
        assert p.direct_cpu_s > 2 * p.direct_cuda_s  # CPU far slower
        assert abs(p.tool_overhead_percent) < 10.0  # tool ~ direct
    # times grow with problem size
    assert points[1].direct_cpu_s > points[0].direct_cpu_s
    assert "Figure 7" in fig7.format_result(points)


def test_overhead_below_two_microseconds_virtual():
    result = overhead.run(n_tasks=500)
    assert result.virtual_us_per_task < 2.0  # the paper's bound
    assert "us/task" in overhead.format_result(result)


def test_overhead_study_gates_obs_budget_and_throughput_floor(tmp_path, capsys):
    cli(overhead.study, ["--smoke", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    for gate in ("obs_budget", "throughput_floor"):
        assert f"gate {gate}: ok" in out or f"FAILED gate: {gate}" in out
    doc = json.loads((tmp_path / "BENCH_obs.json").read_text())["throughput"]
    assert set(doc["tasks_per_s"]) == {"fanout", "chain"}
    assert all(rate > 0 for rate in doc["tasks_per_s"].values())
    assert doc["floor_tasks_per_s"] == overhead.THROUGHPUT_FLOOR


def test_overhead_cli_fails_under_the_throughput_floor(tmp_path, monkeypatch):
    monkeypatch.setattr(overhead, "THROUGHPUT_FLOOR", math.inf)
    assert cli(overhead.study, ["--smoke", "--outdir", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "BENCH_obs.json").read_text())["throughput"]
    assert doc["within_floor"] is False


def test_overhead_chain_stream_waits_on_last_writer(monkeypatch):
    runtimes = []

    class Recording(overhead.Runtime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    monkeypatch.setattr(overhead, "Runtime", Recording)
    overhead._cycle(40, seed=0)
    overhead._cycle(40, seed=0, mode="rw")
    fanout, chain = (sorted(rt.trace.tasks, key=lambda r: r.task_id) for rt in runtimes)
    assert all(not rec.deps for rec in fanout)
    assert all(not rec.deps for rec in chain[:8])
    assert all(len(rec.deps) == 1 for rec in chain[8:])


def test_ablation_scheduler_random_is_worst():
    results = ablations.scheduler_study(scale=0.1)
    assert set(results) == {"eager", "random", "ws", "dm", "dmda"}
    assert results["random"] == max(results.values())
    assert "ABL1" in ablations.format_scheduler_study(results)


def test_ablation_containers_save_transfers():
    result = ablations.container_study(nrows=50_000, calls=8)
    assert result.smart_transfers < result.raw_transfers / 3
    assert result.speedup > 1.5
    assert "ABL2" in ablations.format_container_study(result)


def test_ablation_narrowing_helps_cold_start():
    result = ablations.narrowing_study(size=512, calls=8)
    assert result.narrowed_s < result.dynamic_s
    assert result.dynamic_wrong_picks > 0  # calibration explored losers
    assert "ABL3" in ablations.format_narrowing_study(result)


def test_obs_overhead_result_math():
    result = overhead.ObsOverheadResult(
        n_tasks=100,
        reps=3,
        base_us_per_task=10.0,
        obs_us_per_task=10.4,
        pair_overheads=(0.01, 0.05, 0.02),
    )
    assert result.overhead == pytest.approx(0.04)
    assert result.median_pair_overhead == pytest.approx(0.02)
    assert result.within_budget  # 4% <= 5% budget
    over = overhead.ObsOverheadResult(
        n_tasks=100, reps=1, base_us_per_task=10.0, obs_us_per_task=11.0
    )
    assert not over.within_budget
    assert over.median_pair_overhead == over.overhead  # no pairs recorded
    doc = over.to_dict()
    assert doc["overhead_pct"] == pytest.approx(10.0)
    assert doc["within_budget"] is False
    assert "overhead" in overhead.format_obs_result(over)
