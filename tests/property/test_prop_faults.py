"""Property: fault schedules never corrupt results, only timelines.

Whatever faults strike — transient kernel failures, transfer corruption,
a dying GPU — a run that completes must produce bit-identical kernel
results to the fault-free run, because kernels execute exactly once, on
the attempt that finally succeeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnrecoverableTaskError
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime import RecoveryPolicy, Runtime

from tests.conftest import make_axpy_codelet

_N = 512
_N_TASKS = 6


def _run(faults, scheduler, seed):
    rt = Runtime(
        platform_c2050(),
        scheduler=scheduler,
        seed=seed,
        faults=faults,
        # at transfer_rate <= 0.4 a copy exhausts this resend budget
        # with probability 0.4**31 < 1e-12, so the final host copy
        # always lands and the property below is actually checked
        recovery=RecoveryPolicy(max_retries=10, max_transfer_retries=30),
    )
    cl = make_axpy_codelet()
    y = rt.register(np.zeros(_N, dtype=np.float32))
    x = rt.register(np.ones(_N, dtype=np.float32))
    for i in range(_N_TASKS):
        rt.submit(
            cl, [(y, "rw"), (x, "r")], ctx={"n": _N},
            scalar_args=(float(i + 1),),
        )
    rt.wait_for_all()
    rt.acquire(y, "r")
    result = y.array.copy()
    makespan = rt.shutdown()
    return makespan, result


@given(
    kernel_rate=st.floats(min_value=0.0, max_value=0.6),
    transfer_rate=st.floats(min_value=0.0, max_value=0.4),
    fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
    scheduler=st.sampled_from(["eager", "ws", "dmda"]),
)
@settings(max_examples=40, deadline=None)
def test_any_fault_schedule_preserves_results(
    kernel_rate, transfer_rate, fault_seed, scheduler
):
    _, expected = _run(None, scheduler, seed=1)
    faults = FaultModel(
        kernel_fault_rate=kernel_rate,
        transfer_fault_rate=transfer_rate,
        seed=fault_seed,
    )
    try:
        makespan, result = _run(faults, scheduler, seed=1)
    except UnrecoverableTaskError:
        # a hot-enough schedule may legitimately exhaust the retry
        # budget; the property only constrains runs that complete
        return
    assert np.array_equal(result, expected)
    assert makespan > 0


@given(
    loss_fraction=st.floats(min_value=0.01, max_value=1.5),
    scheduler=st.sampled_from(["eager", "ws", "dmda"]),
)
@settings(max_examples=20, deadline=None)
def test_gpu_loss_at_any_time_preserves_results(loss_fraction, scheduler):
    baseline_makespan, expected = _run(None, scheduler, seed=1)
    machine = platform_c2050()
    gpu = machine.gpu_units[0].unit_id
    faults = FaultModel(
        device_loss_at={gpu: baseline_makespan * loss_fraction}, seed=0
    )
    makespan, result = _run(faults, scheduler, seed=1)
    assert np.array_equal(result, expected)
