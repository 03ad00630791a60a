"""Fault injection and recovery: determinism, fallback, degradation."""

import pickle

import numpy as np
import pytest

from repro.errors import UnrecoverableTaskError
from repro.hw.devices import tesla_c2050, xeon_e5520_core
from repro.hw.faults import FaultModel
from repro.hw.description import make_machine
from repro.hw.presets import cpu_only, platform_c2050
from repro.runtime import RecoveryPolicy, Runtime

from tests.conftest import make_axpy_codelet


def _run_axpy_batch(
    faults=None, scheduler="dmda", seed=0, n_tasks=12, n=4096,
    recovery=None, archs=("cpu", "openmp", "cuda"), machine=None,
):
    rt = Runtime(
        machine if machine is not None else platform_c2050(),
        scheduler=scheduler,
        seed=seed,
        faults=faults,
        recovery=recovery,
    )
    cl = make_axpy_codelet(archs=archs)
    y = rt.register(np.zeros(n, dtype=np.float32))
    x = rt.register(np.ones(n, dtype=np.float32))
    for _ in range(n_tasks):
        rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": n}, scalar_args=(1.0,))
    rt.wait_for_all()
    rt.acquire(y, "r")
    result = y.array.copy()
    makespan = rt.shutdown()
    return makespan, result, rt.trace


# ---------------------------------------------------------------------------
# FaultModel: validation and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"kernel_fault_rate": -0.1},
    {"kernel_fault_rate": 1.5},
    {"transfer_fault_rate": 2.0},
    {"device_loss_rate": -1e-9},
    {"seed": -1},
    {"device_loss_at": {3: -0.5}},
])
def test_fault_model_rejects_bad_arguments(kw):
    with pytest.raises(ValueError):
        FaultModel(**kw)


def test_fault_model_enabled_flag():
    assert not FaultModel().enabled
    assert not FaultModel(seed=99).enabled
    assert FaultModel(kernel_fault_rate=0.1).enabled
    assert FaultModel(transfer_fault_rate=0.1).enabled
    assert FaultModel(device_loss_rate=0.1).enabled
    assert FaultModel(device_loss_at={3: 1.0}).enabled


def test_fault_model_draws_deterministic_under_fixed_seed():
    a = FaultModel(kernel_fault_rate=0.3, transfer_fault_rate=0.3,
                   device_loss_rate=0.3, seed=7)
    b = FaultModel(kernel_fault_rate=0.3, transfer_fault_rate=0.3,
                   device_loss_rate=0.3, seed=7)
    for task_seq in range(50):
        for attempt in range(3):
            assert a.kernel_fault(task_seq, attempt) == b.kernel_fault(
                task_seq, attempt
            )
            assert a.device_loss(1, task_seq, attempt) == b.device_loss(
                1, task_seq, attempt
            )
    for seq in range(100):
        assert a.transfer_fault(seq) == b.transfer_fault(seq)


def test_fault_model_draws_are_order_independent():
    """Draw order never shifts the schedule: each event is keyed, not
    consumed from a shared stream."""
    a = FaultModel(kernel_fault_rate=0.3, seed=11)
    forward = [a.kernel_fault(i, 0) for i in range(20)]
    b = FaultModel(kernel_fault_rate=0.3, seed=11)
    backward = [b.kernel_fault(i, 0) for i in reversed(range(20))]
    assert forward == list(reversed(backward))


def test_fault_model_seed_changes_schedule():
    a = FaultModel(kernel_fault_rate=0.3, seed=0)
    b = FaultModel(kernel_fault_rate=0.3, seed=1)
    draws_a = [a.kernel_fault(i, 0) is not None for i in range(200)]
    draws_b = [b.kernel_fault(i, 0) is not None for i in range(200)]
    assert draws_a != draws_b


def test_fault_model_fault_fraction_in_bounds():
    m = FaultModel(kernel_fault_rate=1.0, seed=5)
    for i in range(100):
        frac = m.kernel_fault(i, 0)
        assert frac is not None and 0.05 <= frac <= 0.95


# ---------------------------------------------------------------------------
# zero overhead when disabled
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ["eager", "ws", "dmda"])
def test_zero_rate_fault_model_is_bit_identical(scheduler):
    """An all-zero FaultModel must not perturb the timeline at all."""
    t0, r0, tr0 = _run_axpy_batch(faults=None, scheduler=scheduler)
    t1, r1, tr1 = _run_axpy_batch(faults=FaultModel(seed=123),
                                  scheduler=scheduler)
    assert t0 == t1
    assert np.array_equal(r0, r1)
    assert len(tr0.tasks) == len(tr1.tasks)
    for a, b in zip(tr0.tasks, tr1.tasks):
        assert (a.start_time, a.end_time, a.worker_ids, a.variant) == (
            b.start_time, b.end_time, b.worker_ids, b.variant
        )
    assert tr1.n_faults == 0


# ---------------------------------------------------------------------------
# recovery: retry, fallback, blacklisting
# ---------------------------------------------------------------------------

def test_faulty_run_recovers_with_correct_results():
    t0, r0, _ = _run_axpy_batch(faults=None)
    faults = FaultModel(kernel_fault_rate=0.3, seed=3)
    t1, r1, tr = _run_axpy_batch(
        faults=faults, recovery=RecoveryPolicy(max_retries=8)
    )
    assert tr.n_faults > 0
    assert tr.n_task_retries >= tr.n_kernel_faults
    assert tr.n_tasks_recovered > 0 and tr.n_tasks_lost == 0
    assert t1 > t0  # lost attempt time + backoff shows up in the makespan
    assert np.array_equal(r0, r1)  # kernels only ran on winning attempts


def test_faulty_run_is_deterministic():
    kw = dict(faults=FaultModel(kernel_fault_rate=0.3, seed=3),
              recovery=RecoveryPolicy(max_retries=8))
    t1, r1, tr1 = _run_axpy_batch(**kw)
    t2, r2, tr2 = _run_axpy_batch(**kw)
    assert t1 == t2
    assert np.array_equal(r1, r2)
    assert tr1.n_faults == tr2.n_faults
    # task ids come from a process-global counter, so compare the
    # schedule itself: kinds, times and attempt numbers
    assert [(f.kind, f.time, f.attempt) for f in tr1.faults] == [
        (f.kind, f.time, f.attempt) for f in tr2.faults
    ]


def test_variant_fallback_after_kernel_fault():
    """First attempt faults -> retry lands on the other architecture."""
    # probe for a seed whose schedule faults attempt 0 of task 0 but not
    # attempt 1 (deterministic: draws are pure functions of (seed, key))
    seed = next(
        s for s in range(1000)
        if FaultModel(kernel_fault_rate=0.5, seed=s).kernel_fault(0, 0)
        is not None
        and FaultModel(kernel_fault_rate=0.5, seed=s).kernel_fault(0, 1)
        is None
    )
    # 2 cores, 1 GPU -> exactly one CPU worker and one CUDA worker, so
    # avoiding the failed placement forces an architecture switch
    machine = make_machine(
        "tiny", xeon_e5520_core(), 2, gpus=[tesla_c2050()]
    )
    t, r, tr = _run_axpy_batch(
        faults=FaultModel(kernel_fault_rate=0.5, seed=seed),
        scheduler="eager",
        n_tasks=1,
        machine=machine,
        archs=("cpu", "cuda"),
    )
    assert r[0] == 1.0
    assert tr.n_kernel_faults == 1
    assert tr.n_tasks_recovered == 1
    assert tr.n_fallbacks == 1  # recovered on a different architecture
    [rec] = tr.tasks
    [fault] = [f for f in tr.faults if f.kind == "kernel"]
    assert rec.start_time > fault.time  # retried after the fault surfaced


def test_retry_exhaustion_raises_unrecoverable():
    rt = Runtime(
        cpu_only(1),
        scheduler="eager",
        seed=0,
        faults=FaultModel(kernel_fault_rate=1.0, seed=0),
        recovery=RecoveryPolicy(max_retries=2),
    )
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    with pytest.raises(UnrecoverableTaskError) as err:
        rt.submit(
            cl, [(y, "rw"), (x, "r")], ctx={"n": 8}, scalar_args=(1.0,),
            name="doomed",
        )
    assert rt.trace.n_tasks_lost == 1
    assert y.array[0] == 0.0  # the kernel never ran
    # the error names its task, not only in the message
    e = err.value
    assert (e.task_name, e.attempts) == ("doomed", 3)
    assert {(f.task_id, f.task_name) for f in rt.trace.faults} == {
        (e.task_id, "doomed")
    }
    assert "doomed" in str(e) and "3 failed attempts" in str(e)
    clone = pickle.loads(pickle.dumps(e))
    assert (clone.task_id, clone.task_name, clone.attempts) == (
        e.task_id, "doomed", 3
    )


def test_unrecoverable_error_names_a_default_named_task():
    rt = Runtime(
        cpu_only(1),
        scheduler="eager",
        seed=0,
        faults=FaultModel(kernel_fault_rate=1.0, seed=0),
        recovery=RecoveryPolicy(max_retries=0),
    )
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    with pytest.raises(UnrecoverableTaskError) as err:
        rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 8}, scalar_args=(1.0,))
    (fault,) = rt.trace.faults
    assert err.value.task_id == fault.task_id
    assert err.value.task_name == f"{cl.name}#{fault.task_id}"
    assert err.value.attempts == 1


@pytest.mark.parametrize("scheduler", ["eager", "dmda", "fair"])
def test_copies_of_a_failed_task_reach_subscribers_before_submit_returns(
    scheduler,
):
    rt = Runtime(
        platform_c2050(),
        scheduler=scheduler,
        seed=0,
        faults=FaultModel(kernel_fault_rate=1.0, seed=0),
        recovery=RecoveryPolicy(max_retries=1),
    )
    seen = []
    rt.engine.events.subscribe("transfer", lambda ev: seen.append(ev.task))
    cl = make_axpy_codelet(archs=("cuda",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    task = rt.make_task(cl, [(y, "w"), (x, "r")], ctx={"n": 8},
                        scalar_args=(1.0,))
    with pytest.raises(UnrecoverableTaskError):
        rt.engine.submit(task)
    # x was staged on the GPU before each attempt faulted; a subscriber
    # that settles the task once submit returns must already see it
    assert seen and all(t is task for t in seen)
    assert len(seen) == len(rt.trace.transfers)


def test_repeated_faults_blacklist_worker_but_never_the_last_one():
    rt = Runtime(
        cpu_only(3),
        scheduler="eager",
        seed=0,
        faults=FaultModel(kernel_fault_rate=1.0, seed=0),
        recovery=RecoveryPolicy(max_retries=30, blacklist_after=2),
    )
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    with pytest.raises(UnrecoverableTaskError):
        rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 8}, scalar_args=(1.0,))
    # every placement faults, so workers hit the blacklist threshold —
    # but at least one worker must always stay usable
    assert rt.trace.blacklisted_workers
    assert len(rt.trace.blacklisted_workers) < 3
    # the engine's usable state is the machine minus the retired workers
    engine = rt.engine
    usable = [u for u in rt.machine.units if engine.worker_usable(u.unit_id)]
    assert list(engine.usable_units) == usable
    assert list(engine.cpu_gang()) == [u for u in usable if u.is_cpu]


# ---------------------------------------------------------------------------
# transfer faults
# ---------------------------------------------------------------------------

def test_transfer_faults_are_retransmitted_with_correct_data():
    t0, r0, _ = _run_axpy_batch(faults=None, scheduler="eager",
                                archs=("cuda",), n=65536, n_tasks=6)
    faults = FaultModel(transfer_fault_rate=0.5, seed=2)
    t1, r1, tr = _run_axpy_batch(
        faults=faults, scheduler="eager", archs=("cuda",), n=65536, n_tasks=6,
        recovery=RecoveryPolicy(max_retries=8),
    )
    assert tr.n_transfer_faults > 0
    assert np.array_equal(r0, r1)
    assert t1 > t0  # each corrupted attempt still spends wire time


# ---------------------------------------------------------------------------
# device loss and graceful degradation
# ---------------------------------------------------------------------------

def _gpu_unit(machine):
    return machine.gpu_units[0].unit_id


def test_device_loss_mid_run_degrades_to_cpu():
    machine = platform_c2050()
    t0, r0, _ = _run_axpy_batch(faults=None, scheduler="eager")
    faults = FaultModel(device_loss_at={_gpu_unit(machine): t0 * 0.2}, seed=1)
    t1, r1, tr = _run_axpy_batch(faults=faults, scheduler="eager")
    assert np.array_equal(r0, r1)
    assert tr.n_devices_lost == 1
    assert tr.lost_workers == {_gpu_unit(machine)}
    # nothing runs on the dead device after the loss time
    loss_time = t0 * 0.2
    for rec in tr.tasks:
        if _gpu_unit(machine) in rec.worker_ids:
            assert rec.start_time < loss_time or rec.end_time <= loss_time


def test_device_loss_invalidates_replicas_and_resources_from_host():
    """The GPU dies holding the sole modified copy; a later host read
    must recover through the coherence layer, not crash."""
    machine = platform_c2050()
    gpu = _gpu_unit(machine)

    # measure when a single GPU task finishes
    rt = Runtime(platform_c2050(), scheduler="eager", seed=0, noise_sigma=0.0)
    cl = make_axpy_codelet(archs=("cuda",))
    y = rt.register(np.zeros(1024, dtype=np.float32))
    x = rt.register(np.ones(1024, dtype=np.float32))
    rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 1024}, scalar_args=(1.0,),
              sync=True)
    t_done = rt.now
    rt.shutdown()

    # replay with the GPU dying after that task but before the host read
    rt = Runtime(
        platform_c2050(), scheduler="eager", seed=0, noise_sigma=0.0,
        faults=FaultModel(device_loss_at={gpu: t_done * 1.5}, seed=0),
    )
    cl = make_axpy_codelet(archs=("cuda",))
    cl_cpu = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(1024, dtype=np.float32))
    x = rt.register(np.ones(1024, dtype=np.float32))
    rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 1024}, scalar_args=(1.0,),
              sync=True)
    # unrelated CPU work advances virtual time past the scripted loss
    w = rt.register(np.zeros(1 << 20, dtype=np.float32))
    v = rt.register(np.ones(1 << 20, dtype=np.float32))
    while rt.now <= t_done * 1.5:
        rt.submit(cl_cpu, [(w, "rw"), (v, "r")], ctx={"n": 1 << 20},
                  scalar_args=(1.0,), sync=True)
    rt.acquire(y, "r")
    assert y.array[0] == 1.0
    rt.shutdown()
    assert rt.trace.n_devices_lost == 1
    assert rt.trace.n_replicas_recovered >= 1
    assert any(f.kind == "replica_lost" for f in rt.trace.faults)


# ---------------------------------------------------------------------------
# acceptance scenario: fig6 workload under faults, all schedulers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["eager", "ws", "dmda"])
def test_fig6_sgemm_under_faults_matches_reference(policy):
    from repro.experiments.fig6 import SCENARIOS
    from repro.workloads import gemm_inputs

    scenario = SCENARIOS["sgemm"]
    size = scenario.sizes[0]
    a, b, c = gemm_inputs(size, size, size, seed=0)
    reference = 1.0 * (a.astype(np.float64) @ b.astype(np.float64))

    rt = Runtime(
        platform_c2050(), scheduler=policy, seed=0,
        faults=FaultModel(kernel_fault_rate=0.05, seed=42),
    )
    a2, b2, c2 = gemm_inputs(size, size, size, seed=0)
    ha, hb, hc = (rt.register(m) for m in (a2, b2, c2))
    codelets = scenario.make_codelets()
    rt.submit(
        codelets["sgemm"], [(ha, "r"), (hb, "r"), (hc, "rw")],
        ctx={"m": size, "n": size, "k": size},
        scalar_args=(size, size, size, 1.0, 0.0),
    )
    rt.wait_for_all()
    rt.acquire(hc, "r")
    assert np.allclose(hc.array, reference, rtol=1e-3, atol=1e-4)
    assert rt.shutdown() > 0


# ---------------------------------------------------------------------------
# trace export of fault events
# ---------------------------------------------------------------------------

def test_chrome_trace_contains_fault_and_flow_events():
    import json

    from repro.runtime import to_chrome_trace

    _, _, tr = _run_axpy_batch(
        faults=FaultModel(kernel_fault_rate=0.3, seed=3),
        recovery=RecoveryPolicy(max_retries=8),
    )
    assert tr.n_faults > 0
    obj = to_chrome_trace(tr, platform_c2050())
    json.dumps(obj)  # must serialise cleanly
    instants = [e for e in obj["traceEvents"]
                if e.get("cat") == "fault" and e["ph"] == "i"]
    flows = [e for e in obj["traceEvents"]
             if e.get("cat") == "fault" and e["ph"] in ("s", "t", "f")]
    assert len(instants) == tr.n_faults
    # every opened retry flow is terminated exactly once
    opened = {e["id"] for e in flows if e["ph"] == "s"}
    finished = [e["id"] for e in flows if e["ph"] == "f"]
    assert sorted(finished) == sorted(opened)
    for e in flows:
        assert e["ts"] >= 0
