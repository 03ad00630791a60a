"""Scheduling policies, exercised through the real engine."""

import numpy as np
import pytest

from repro.hw.presets import cpu_only, platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.schedulers import make_scheduler, policy_names

from tests.conftest import make_axpy_codelet


def test_factory_knows_all_policies():
    assert policy_names() == [
        "dm", "dmda", "eager", "fair", "lookahead", "random", "replay", "ws",
    ]
    for name in policy_names():
        assert make_scheduler(name).name == name


def test_factory_unknown_policy_lists_all_registered_names():
    with pytest.raises(KeyError) as excinfo:
        make_scheduler("heft9000")
    message = str(excinfo.value)
    assert "heft9000" in message
    for name in policy_names():
        assert f"'{name}'" in message


def test_fair_delegates_placement_and_validates():
    sched = make_scheduler("fair")
    assert sched.inner.name == "dmda"
    sched = make_scheduler("fair", inner="eager", weights={"a": 2.0})
    assert sched.inner.name == "eager" and sched.weight_of("a") == 2.0
    assert sched.weight_of("unknown-tenant") == 1.0
    with pytest.raises(ValueError):
        make_scheduler("fair", inner="fair")
    with pytest.raises(ValueError):
        make_scheduler("fair", weights={"a": 0.0})


def test_factory_forwards_options():
    sched = make_scheduler("dmda", calibration_samples=5, objective="min_energy")
    assert sched.calibration_samples == 5 and sched.objective == "min_energy"


def test_dmda_validates_calibration_samples():
    with pytest.raises(ValueError):
        make_scheduler("dmda", calibration_samples=0)


def _run_tasks(scheduler, n_tasks=20, n=200_000, seed=0, machine=None):
    rt = Runtime(machine or platform_c2050(), scheduler=scheduler, seed=seed)
    cl = make_axpy_codelet()
    y = np.zeros(n, dtype=np.float32)
    x = np.ones(n, dtype=np.float32)
    handles = [
        (rt.register(y.copy(), f"y{i}"), rt.register(x, f"x{i}"))
        for i in range(4)
    ]
    for i in range(n_tasks):
        hy, hx = handles[i % 4]
        rt.submit(cl, [(hy, "rw"), (hx, "r")], ctx={"n": n}, scalar_args=(1.0,))
    makespan = rt.wait_for_all()
    trace = rt.trace
    rt.shutdown()
    return makespan, trace


@pytest.mark.parametrize("policy", ["eager", "random", "ws", "dm", "dmda"])
def test_every_policy_completes_all_tasks(policy):
    _, trace = _run_tasks(policy)
    assert trace.n_tasks == 20


@pytest.mark.parametrize("policy", ["eager", "ws", "dm", "dmda"])
def test_deterministic_policies_are_reproducible(policy):
    m1, t1 = _run_tasks(policy, seed=3)
    m2, t2 = _run_tasks(policy, seed=3)
    assert m1 == m2
    assert t1.tasks_by_variant() == t2.tasks_by_variant()


def test_random_spreads_by_device_speed():
    _, trace = _run_tasks("random", n_tasks=60)
    by_arch = trace.tasks_by_arch()
    # the GPU is far faster than one core: weighted-random must favour it
    assert by_arch.get("cuda", 0) > 30


def test_dmda_calibrates_then_exploits():
    """After calibration, dmda must send large axpy tasks to the GPU."""
    _, trace = _run_tasks("dmda", n_tasks=30, n=2_000_000)
    variants = [rec.variant for rec in trace.tasks]
    tail = variants[-10:]
    assert all(v == "axpy_cuda" for v in tail), tail


def test_dmda_prefers_cpu_for_tiny_tasks():
    """Launch overhead dominates tiny *host-resident* tasks: CPU wins.

    (When the operand already sits in device memory, keeping tiny tasks
    on the GPU is the data-aware policy working as intended, so each
    task here gets fresh host data.)
    """
    rt = Runtime(platform_c2050(), scheduler="dmda", seed=0)
    cl = make_axpy_codelet()
    n = 64
    records = []
    for i in range(30):
        hy = rt.register(np.zeros(n, dtype=np.float32), f"y{i}")
        hx = rt.register(np.ones(n, dtype=np.float32), f"x{i}")
        rt.submit(cl, [(hy, "rw"), (hx, "r")], ctx={"n": n}, scalar_args=(1.0,))
    rt.wait_for_all()
    tail = [rec.arch for rec in rt.trace.tasks][-10:]
    rt.shutdown()
    assert all(a != "cuda" for a in tail), tail


def test_dmda_data_awareness_prefers_data_locality():
    """With history trained, dmda keeps tasks where their data lives."""
    rt = Runtime(platform_c2050(), scheduler="dmda", seed=0)
    n = 500_000

    def fn(ctx, y):
        y += 1.0

    # CPU and CUDA variants with identical modeled compute cost: only the
    # transfer term differentiates them
    cl = Codelet(
        "same",
        [
            ImplVariant("same_cpu", Arch.CPU, fn, lambda c, d: 1e-3),
            ImplVariant("same_cuda", Arch.CUDA, fn, lambda c, d: 1e-3),
        ],
    )
    h = rt.register(np.zeros(n, dtype=np.float32))
    for _ in range(20):
        rt.submit(cl, [(h, "rw")], ctx={"n": n})
    rt.wait_for_all()
    # data starts on the host; equal compute cost => dmda should never
    # pay the 40 MB PCIe round trip
    archs = {rec.arch for rec in rt.trace.tasks[4:]}  # after calibration
    rt.shutdown()
    assert "cuda" not in archs


def test_ws_balances_assignment_counts():
    _, trace = _run_tasks("ws", n_tasks=40, machine=cpu_only(4))
    counts = {}
    for rec in trace.tasks:
        for w in rec.worker_ids:
            counts[w] = counts.get(w, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 2


def test_eager_fills_idle_workers():
    """Independent equal tasks on a CPU-only box spread across cores."""
    _, trace = _run_tasks("eager", n_tasks=16, machine=cpu_only(4))
    used_workers = {w for rec in trace.tasks for w in rec.worker_ids}
    assert len(used_workers) == 4


def test_dmda_prices_each_variant_once_per_decision(monkeypatch):
    """c2050 has several CPU workers per variant: dmda still asks the
    model once per (task, variant), not once per candidate worker."""
    from repro.runtime.engine import Engine

    calls = {"is_calibrated": [], "predict_exec": []}
    for method in calls:
        original = getattr(Engine, method)

        def counted(self, task, variant, *rest, _m=method, _f=original):
            calls[_m].append((task.task_id, variant.name))
            return _f(self, task, variant, *rest)

        monkeypatch.setattr(Engine, method, counted)
    _, trace = _run_tasks("dmda", n_tasks=30, n=2_000_000)
    assert trace.n_tasks == 30
    for method, seen in calls.items():
        assert seen, method
        assert len(seen) == len(set(seen)), method
    assert calls["predict_exec"]  # steady-state decisions were made
