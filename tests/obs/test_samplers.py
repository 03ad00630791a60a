"""Lazy virtual-time engine samplers and their registry gauges."""

from bisect import bisect_right

import numpy as np
import pytest

from repro.hw.presets import platform_c2050
from repro.obs import MetricsSuite
from repro.obs.samplers import EngineSamplers
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.trace_export import _US, _counter_events


def _codelet(cost):
    return Codelet(
        "work",
        [
            ImplVariant(
                "work_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: cost
            ),
        ],
    )


def _runtime():
    return Runtime(
        platform_c2050(), scheduler="eager", seed=0, noise_sigma=0.0
    )


def _run(rt, suite, n=20, cost=1e-3):
    cod = _codelet(cost)
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    for i in range(n):
        rt.submit(cod, [(h, "r")], name=f"t{i}")
    rt.wait_for_all()


def test_period_must_be_positive():
    rt = _runtime()
    with pytest.raises(ValueError):
        EngineSamplers(rt.engine, period_s=0.0)
    rt.shutdown()


def test_flush_produces_boundary_and_tail_samples():
    rt = _runtime()
    suite = MetricsSuite(period_s=1e-3).attach(rt.engine)
    _run(rt, suite, n=20, cost=1e-3)  # ~20 ms of virtual work
    makespan = rt.shutdown()
    samples = suite.samplers.samples
    # one sample per 1 ms boundary crossed, plus the off-boundary tail
    n_boundaries = int(makespan / 1e-3)
    assert len(samples) == n_boundaries + 1
    assert samples[-1].time == pytest.approx(makespan)
    times = [s.time for s in samples]
    assert times == sorted(times)
    # the single CPU worker is saturated: every interior boundary sees
    # it busy and at least one queued task
    interior = samples[1:-2]
    assert interior
    assert all(s.queue_depth >= 1 for s in interior)
    assert all(s.busy_fraction > 0 for s in interior)
    assert suite.samplers.peak_queue_depth() >= 1
    assert 0.0 < suite.samplers.mean_busy_fraction() <= 1.0


def test_snapshot_catches_samplers_up_mid_run():
    rt = _runtime()
    suite = MetricsSuite(period_s=1e-3).attach(rt.engine)
    _run(rt, suite, n=10, cost=1e-3)
    assert suite.samplers.samples == []  # lazy: nothing sampled yet
    now = rt.engine.clock.now
    suite.snapshot()
    # one sample per boundary the virtual clock has crossed so far
    assert abs(len(suite.samplers.samples) - now / 1e-3) <= 1
    assert suite.samplers.samples
    queue_gauge = suite.registry.get("repro_queue_depth")
    busy_gauge = suite.registry.get("repro_worker_busy")
    assert len(busy_gauge) == len(rt.engine.machine.units)
    assert queue_gauge.value() == suite.samplers.latest.queue_depth
    rt.shutdown()


def test_gauges_mirror_last_sample_after_shutdown():
    rt = _runtime()
    suite = MetricsSuite(period_s=1e-3).attach(rt.engine)
    _run(rt, suite, n=5, cost=1e-3)
    rt.shutdown()
    last = suite.samplers.latest
    snap = suite.snapshot()
    assert last.queue_depth == 0  # drained
    assert snap["repro_queue_depth"]["series"][0]["value"] == 0
    assert snap["repro_backlog_seconds"]["series"][0]["value"] == (
        pytest.approx(last.backlog_s)
    )


def test_max_samples_caps_catchup_over_idle_gaps():
    rt = _runtime()
    samplers = EngineSamplers(rt.engine, period_s=1e-6, max_samples=50)
    rt.engine.events.attach(samplers)
    cod = _codelet(5e-3)  # 5 ms task = 5000 microsecond boundaries
    h = rt.register(np.zeros(8, dtype=np.float32), "d")
    rt.submit(cod, [(h, "r")], name="t0")
    rt.wait_for_all()
    samplers.catch_up()
    assert len(samplers.samples) <= 51
    rt.shutdown()


def test_sample_points_serialize():
    rt = _runtime()
    suite = MetricsSuite(period_s=1e-3).attach(rt.engine)
    _run(rt, suite, n=3, cost=1e-3)
    rt.shutdown()
    doc = suite.samplers.to_jsonable()
    assert doc and set(doc[0]) == {
        "time",
        "queue_depth",
        "worker_busy",
        "resident_bytes",
        "backlog_s",
    }


def test_idle_gap_samples_read_the_trace_at_the_boundary():
    """Boundaries inside a host idle gap see nothing submitted or running,
    even though the catch-up runs after later work was committed."""
    rt = _runtime()
    suite = MetricsSuite(period_s=1e-3).attach(rt.engine)
    cod = _codelet(1e-3)
    handles = [rt.register(np.zeros(8, dtype=np.float32), f"h{i}") for i in range(8)]
    for h in handles[:4]:
        rt.submit(cod, [(h, "r")])
    rt.wait_for_all()
    gap_start = rt.engine.clock.now
    rt.engine.clock.advance(10e-3)
    gap_end = rt.engine.clock.now
    for h in handles[4:]:
        rt.submit(cod, [(h, "r")])
    rt.shutdown()
    inside = [
        s for s in suite.samplers.samples if gap_start < s.time < gap_end - 1e-9
    ]
    assert len(inside) >= 8
    for s in inside:
        assert s.queue_depth == 0, s
        assert not any(s.worker_busy), s
        assert s.backlog_s == 0.0, s
    # the work on either side of the gap is still seen
    assert suite.samplers.samples[0].queue_depth == 4
    assert suite.samplers.peak_queue_depth() == 4


def test_samples_agree_with_chrome_counters_on_a_multi_worker_run():
    rt = Runtime(platform_c2050(), scheduler="dmda", seed=3, noise_sigma=0.03)
    suite = MetricsSuite(period_s=2e-4).attach(rt.engine)
    cod = Codelet(
        "work",
        [
            ImplVariant("w_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 1e-3),
            ImplVariant("w_cuda", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 3e-4),
        ],
    )
    rng = np.random.default_rng(0)
    handles = [
        rt.register(np.zeros(256, dtype=np.float32), f"h{i}") for i in range(6)
    ]
    for i in range(60):
        rt.submit(cod, [(handles[int(rng.integers(6))], "rw" if i % 3 else "r")])
    rt.shutdown()
    counters = _counter_events(rt.trace, rt.machine)
    tracks: dict[str, tuple[list, list]] = {}
    for e in counters:
        ts, args = tracks.setdefault(e["name"], ([], []))
        ts.append(e["ts"])
        args.append(e["args"])

    def in_effect(name: str, t: float):
        ts, args = tracks.get(name, ([], []))
        i = bisect_right(ts, t * _US)
        return args[i - 1] if i else None

    units = [u.unit_id for u in rt.machine.units]
    assert len({w for rec in rt.trace.tasks for w in rec.worker_ids}) > 1
    samples = suite.samplers.samples
    assert len(samples) > 20
    assert max(s.busy_fraction for s in samples) > 1 / len(units)
    for s in samples:
        queue = in_effect("queue depth", s.time)
        depth = queue["pending"] + queue["running"] if queue else 0
        assert s.queue_depth == depth, s.time
        for w, flag in zip(units, s.worker_busy):
            util = in_effect(f"util u{w}", s.time)
            assert flag == (1.0 if util and util["busy"] else 0.0), (s.time, w)
