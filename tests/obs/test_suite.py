"""MetricsSuite: the engine metric catalogue, exact at every read."""

import numpy as np
import pytest

from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.obs import MetricsRegistry, MetricsSuite
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _codelet(name="noop", cost=1e-6, archs=(Arch.CPU, Arch.CUDA)):
    return Codelet(
        name,
        [
            ImplVariant(
                f"{name}_{a.value}", a, lambda ctx, *args: None, lambda c, d: cost
            )
            for a in archs
        ],
    )


def _runtime(**kw):
    kw.setdefault("scheduler", "eager")
    kw.setdefault("noise_sigma", 0.0)
    kw.setdefault("seed", 0)
    return Runtime(platform_c2050(), **kw)


def _counter_total(suite, name):
    metric = suite.registry.get(name)
    suite.collect()
    return sum(v for _, v in metric.series())


def test_create_normalizes_the_metrics_argument():
    assert MetricsSuite.create(None) is None
    assert MetricsSuite.create(False) is None
    default = MetricsSuite.create(True)
    assert isinstance(default, MetricsSuite)
    assert default.spans is None  # span tracing is the opt-in tier
    custom = MetricsSuite.create({"period_s": 0.5, "trace_spans": True})
    assert custom.period_s == 0.5
    assert custom.spans is not None
    suite = MetricsSuite()
    assert MetricsSuite.create(suite) is suite
    with pytest.raises(TypeError):
        MetricsSuite.create("yes")


def test_catalogue_matches_trace_exactly():
    rt = _runtime()
    suite = MetricsSuite().attach(rt.engine)
    a, b = _codelet("alpha"), _codelet("beta")
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    for i in range(5):
        rt.submit(a, [(h, "r")], name=f"a{i}")
    for i in range(3):
        rt.submit(b, [(h, "r")], name=f"b{i}")
    rt.wait_for_all()
    rt.shutdown()
    trace = rt.engine.trace

    submitted = suite.registry.get("repro_tasks_submitted_total")
    completed = suite.registry.get("repro_tasks_completed_total")
    duration = suite.registry.get("repro_task_duration_seconds")
    queue_wait = suite.registry.get("repro_task_queue_wait_seconds")
    decisions = suite.registry.get("repro_schedule_decisions_total")
    suite.collect()
    assert submitted.value(codelet="alpha") == 5
    assert submitted.value(codelet="beta") == 3
    assert decisions.value(codelet="alpha") == 5
    assert sum(v for _, v in completed.series()) == len(trace.tasks) == 8
    assert queue_wait.count(codelet="alpha") == 5
    # duration histogram saw exactly the recorded kernel times
    total = sum(
        s.sum for _, s in duration.series()
    )
    assert total == pytest.approx(sum(r.duration for r in trace.tasks))


def test_snapshot_is_exact_mid_run_and_at_end():
    rt = _runtime()
    suite = MetricsSuite().attach(rt.engine)
    cod = _codelet()
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    for i in range(4):
        rt.submit(cod, [(h, "r")], name=f"t{i}")
    # mid-run: submissions seen so far are all visible
    assert _counter_total(suite, "repro_tasks_submitted_total") == 4
    for i in range(2):
        rt.submit(cod, [(h, "r")], name=f"late{i}")
    rt.wait_for_all()
    rt.shutdown()
    snap = suite.snapshot()
    series = snap["repro_tasks_submitted_total"]["series"]
    assert sum(s["value"] for s in series) == 6
    assert sum(
        s["count"] for s in snap["repro_task_duration_seconds"]["series"]
    ) == 6


def test_transfers_fold_with_direction_labels():
    rt = _runtime(scheduler="dmda")
    suite = MetricsSuite().attach(rt.engine)
    # CUDA-only codelet forces device placement, hence h2d staging
    cod = _codelet("gpuonly", cost=1e-5, archs=(Arch.CUDA,))
    h = rt.register(np.zeros(1024, dtype=np.float32), "d")
    rt.submit(cod, [(h, "r")], name="t0")
    rt.wait_for_all()
    rt.shutdown()
    trace = rt.engine.trace
    assert trace.transfers, "expected at least one staging copy"
    suite.collect()
    transfers = suite.registry.get("repro_transfers_total")
    xfer_bytes = suite.registry.get("repro_transfer_bytes_total")
    assert transfers.value(direction="h2d") == sum(
        1 for r in trace.transfers if r.src_node == 0 and r.dst_node != 0
    )
    assert sum(v for _, v in xfer_bytes.series()) == sum(
        r.nbytes for r in trace.transfers
    )


def test_faults_and_retries_fold():
    rt = _runtime(
        scheduler="dmda",
        faults=FaultModel(kernel_fault_rate=0.08, seed=3),
    )
    suite = MetricsSuite().attach(rt.engine)
    cod = _codelet(cost=1e-3)
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    for i in range(30):
        rt.submit(cod, [(h, "r")], name=f"t{i}")
    rt.wait_for_all()
    rt.shutdown()
    trace = rt.engine.trace
    assert trace.faults, "fault model injected nothing; raise the rate"
    suite.collect()
    faults = suite.registry.get("repro_faults_total")
    retries = suite.registry.get("repro_schedule_retries_total")
    assert sum(v for _, v in faults.series()) == len(trace.faults)
    assert sum(v for _, v in retries.series()) == trace.n_task_retries
    assert sum(trace.retries_by_codelet.values()) == trace.n_task_retries


def test_attach_counts_only_from_attach_onward():
    rt = _runtime()
    cod = _codelet()
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    rt.submit(cod, [(h, "r")], name="before")
    rt.wait_for_all()
    suite = MetricsSuite().attach(rt.engine)
    rt.submit(cod, [(h, "r")], name="after")
    rt.wait_for_all()
    rt.shutdown()
    assert _counter_total(suite, "repro_tasks_submitted_total") == 1
    assert _counter_total(suite, "repro_tasks_completed_total") == 1


def test_reattach_accumulates_across_engines():
    suite = MetricsSuite()
    for round_ in range(2):
        rt = _runtime(seed=round_)
        suite.attach(rt.engine)
        cod = _codelet()
        h = rt.register(np.zeros(8, dtype=np.float32), "d")
        for i in range(3):
            rt.submit(cod, [(h, "r")], name=f"t{i}")
        rt.wait_for_all()
        rt.shutdown()
    assert _counter_total(suite, "repro_tasks_submitted_total") == 6
    assert _counter_total(suite, "repro_tasks_completed_total") == 6


def test_detach_folds_pending_state():
    rt = _runtime()
    suite = MetricsSuite().attach(rt.engine)
    cod = _codelet()
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    rt.submit(cod, [(h, "r")], name="t0")
    rt.wait_for_all()
    suite.detach()
    assert suite.engine is None
    # folded on detach, and later engine activity is not observed
    rt.submit(cod, [(h, "r")], name="unobserved")
    rt.wait_for_all()
    rt.shutdown()
    assert _counter_total(suite, "repro_tasks_submitted_total") == 1


def test_default_suite_subscribes_no_per_task_events():
    """The overhead budget's structural guarantee: nothing rides the
    per-task hot path — only the shutdown flush is subscribed."""
    rt = _runtime()
    MetricsSuite().attach(rt.engine)
    events = rt.engine.events
    for kind in ("submit", "schedule", "start", "complete", "transfer"):
        assert events.n_subscribers(kind) == 0
    assert events.n_subscribers("flush") == 2  # catalogue + samplers
    rt.shutdown()


def test_shared_registry_is_respected():
    reg = MetricsRegistry()
    suite = MetricsSuite(registry=reg)
    assert suite.registry is reg
    rt = _runtime()
    suite.attach(rt.engine)
    rt.shutdown()
    assert "repro_queue_depth" in reg


def test_cleared_and_refilled_trace_keeps_every_count():
    """A trace cleared while attached and refilled past the old read
    position is read from its first row again, for the row folds and
    the per-codelet counters alike."""
    rt = _runtime()
    suite = MetricsSuite().attach(rt.engine)
    cod = _codelet()
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    for i in range(5):
        rt.submit(cod, [(h, "r")], name=f"t{i}")
    rt.wait_for_all()
    suite.collect()
    rt.engine.trace.clear()
    for i in range(8):
        rt.submit(cod, [(h, "r")], name=f"u{i}")
    rt.wait_for_all()
    rt.shutdown()
    assert _counter_total(suite, "repro_tasks_completed_total") == 13
    assert _counter_total(suite, "repro_tasks_submitted_total") == 13
    assert _counter_total(suite, "repro_schedule_decisions_total") == 13
    duration = suite.registry.get("repro_task_duration_seconds")
    assert sum(s.count for _, s in duration.series()) == 13
