"""Self-tests of the benchmark harness: ``pytest benchmarks/perf``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

import pytest

import compare
import run
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _span(sid, parent, root, layer, start, end):
    return (sid, parent, root, layer, 0, start, end)


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        # recorded in exit order: children before their parents
        _span(2, 1, 0, 2, 20, 30),  # C inside A
        _span(1, 0, 0, 1, 10, 40),  # A inside the root
        _span(3, 0, 0, 1, 50, 90),  # B, A's sibling
        _span(0, -1, 0, 0, 0, 100),  # root
        _span(4, -1, 4, 1, 120, 130),  # a second root
    ]
    calls, self_ns = tracing.layer_totals(spans, 3)
    assert calls == [1, 3, 1]
    assert self_ns == [100 - 30 - 40, (30 - 10) + 40 + 10, 10]
    assert tracing.root_ns(spans) == 110


def test_best_median_and_quartile_helpers():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0]
    assert run.run_value(values, "lower", "best") == 1.0
    assert run.run_value(values, "higher", "best") == 9.0
    assert run.run_value(values, "lower", "median") == statistics.median(values)
    assert run.run_value(values, "lower", "max") == 9.0
    assert run.run_value(values, "lower", "exact") == 3.0
    q1, med, q3 = run.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def _metric(values, better="lower", method="best", bound=0.25):
    q1, med, q3 = run.quartiles(values)
    value = run.run_value(values, better, method)
    return {"value": value, "values": values, "median": med, "q1": q1, "q3": q3,
            "better": better, "method": method, "bound": bound}


def test_compare_verdicts():
    base = _metric([1.00, 1.01, 1.02, 1.03])
    assert compare.verdict(base, _metric([1.10, 1.11, 1.12, 1.13])) == "within"
    assert compare.verdict(base, _metric([1.40, 1.41, 1.42, 1.43])) == "worse"
    assert compare.verdict(base, _metric([1.0, 2.0, 3.0, 4.0])) == "unresolved"
    # a noisy change that beats every parent rep is not unresolved
    assert compare.verdict(_metric([2.0, 3.0, 4.0, 5.0]), base) == "within"
    # the verdict reads medians: one lucky rep does not hide a slower median
    steady = _metric([1.0, 1.02, 1.02, 1.03, 1.03, 1.03], bound=0.1)
    slower = _metric([1.0, 1.15, 1.15, 1.15, 1.15, 1.16], bound=0.1)
    assert steady["value"] == slower["value"]
    assert compare.verdict(steady, slower) == "worse"
    exact = _metric([5.0, 5.0], method="exact")
    assert compare.verdict(exact, _metric([5.0, 5.0, 5.0], method="exact")) == "same"
    assert compare.verdict(exact, _metric([5.5], method="exact")) == "differs"


def test_tracer_wraps_and_restores_entry_points():
    from repro.runtime.runtime import Runtime

    original = Runtime.__dict__["submit"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Runtime.__dict__["submit"] is not original
        assert Runtime.submit.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert Runtime.__dict__["submit"] is original


def test_metric_names_are_well_formed_and_unique():
    names = [m[0] for m in run.END_TO_END] + [m[0] for m in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name) and len(name) <= 64, name
    assert len(run.PER_LAYER) <= 128


def test_benchmark_json_matches_the_harness():
    import workloads

    doc = json.loads(BENCHMARK_JSON.read_text())
    assert doc["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in doc["workloads"]] == [
        workloads.WORKLOADS[n].why for n in run.WORKLOAD_NAMES
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [(n, u, b, bound) for n, u, b, bound, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        run.PER_LAYER
    )
    assert set(run.HOT) == set(tracing.LAYERS)
    # set-up time carries the largest bound
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_prints_every_end_to_end_metric(name):
    result, detail = run.run_workload(name, seed=1, seconds=0, traced=False, scale=0.02)
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {m: u for m, u, *_ in run.END_TO_END}
    assert list(result["metrics"]) == list(units)
    for metric, v in result["metrics"].items():
        assert v["unit"] == units[metric]
        assert math.isfinite(v["value"]) and v["value"] > 0, metric
    assert len(detail["reps"]) == run.MIN_REPS
    assert 0 < detail["prepare_rss_mb"] <= result["metrics"]["peak_rss_mb"]["value"]


def test_tiny_traced_smoke_reports_every_layer_metric():
    from repro.runtime.runtime import Runtime

    result, detail = run.run_workload(
        "dag_eager", seed=1, seconds=0, traced=True, scale=0.05
    )
    assert result["correct"], detail["errors"]
    assert list(result["metrics"]) == [m for m, _, _ in run.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["runtime.calls"] > 0 and m["engine.calls"] > 0
    assert m["wall_s"] > 0 and m["ops_per_s"] > 0
    assert m["harness.span_coverage"] >= run.MIN_SPAN_COVERAGE
    assert m["harness.trace_overhead"] > 0
    # the wrappers are gone once the traced run ends
    assert not getattr(Runtime.submit, "_traced", False)
