"""Smoke tests for the backends differential and engine benchmark."""

from __future__ import annotations

import json

from repro.experiments import backends as backends_exp
from repro.experiments import engine_bench
from repro.experiments.runner import cli


def test_backends_differential_tiny():
    diffs = backends_exp.run_component(
        "sgemm",
        backends_exp.sgemm.INTERFACE,
        backends_exp.sgemm.IMPLEMENTATIONS,
        backends_exp.sgemm.training_operands,
        backends_exp.sgemm_ladder((16, 32)),
        reps=1,
    )
    assert diffs.rows, "no measured samples collected"
    for row in diffs.rows:
        assert row.analytical_s > 0
        assert row.measured_s > 0
    assert diffs.choices  # >= 2 variants ran per rung
    d = diffs.to_dict()
    assert d["scale_wall_over_analytical"] > 0
    assert 0.0 <= d["choice_agreement"] <= 1.0
    text = backends_exp.format_diff([diffs])
    assert "sgemm" in text


def test_backends_main_writes_json_and_exits_zero(tmp_path, capsys):
    rc = cli(backends_exp.study, ["--smoke", "--outdir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "BENCH_backends.json").read_text())
    assert payload["smoke"] is True
    assert {c["component"] for c in payload["components"]} == {"sgemm", "spmv"}
    for comp in payload["components"]:
        assert comp["n_rows"] > 0


def test_engine_bench_workloads():
    fan = engine_bench.run_fanout(n_tasks=300)
    chain = engine_bench.run_chain(n_tasks=300)
    assert fan.tasks_per_s > 0 and chain.tasks_per_s > 0
    assert fan.n_tasks == chain.n_tasks == 300


def test_engine_bench_main_writes_json(tmp_path, capsys):
    rc = cli(engine_bench.study, ["--smoke", "--outdir", str(tmp_path)])
    payload = json.loads((tmp_path / "BENCH_engine.json").read_text())
    assert {w["workload"] for w in payload["workloads"]} == {"fanout", "chain"}
    assert payload["within_budget"] == (rc == 0)
