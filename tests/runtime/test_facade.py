"""Runtime facade: argument handling and option plumbing."""

import numpy as np
import pytest

from repro.errors import RuntimeSystemError
from repro.hw.presets import cpu_only, platform_c2050
from repro.runtime import AccessMode, Runtime
from repro.runtime.schedulers import DmdaScheduler

from tests.conftest import make_axpy_codelet


def test_scheduler_instance_is_an_unknown_policy():
    # schedulers are named; a pre-built instance is not a policy name
    with pytest.raises(KeyError, match="unknown scheduling policy"):
        Runtime(platform_c2050(), scheduler=DmdaScheduler())


def test_scheduler_options_forwarded_by_name():
    rt = Runtime(
        platform_c2050(), scheduler="dmda", scheduler_options={"calibration_samples": 3}
    )
    assert rt.scheduler.calibration_samples == 3
    rt.shutdown()


def test_operand_modes_accept_enum_and_text():
    rt = Runtime(cpu_only(2), scheduler="eager", noise_sigma=0.0)
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    rt.submit(cl, [(y, AccessMode.RW), (x, "read")], ctx={"n": 8}, scalar_args=(1.0,))
    rt.wait_for_all()
    assert y.array[0] == 1.0
    rt.shutdown()


def test_acquire_accepts_text_mode():
    rt = Runtime(cpu_only(2), scheduler="eager", noise_sigma=0.0)
    h = rt.register(np.zeros(4, dtype=np.float32))
    rt.acquire(h, "readwrite")
    rt.shutdown()


def test_now_and_trace_properties():
    rt = Runtime(cpu_only(2), scheduler="eager", noise_sigma=0.0)
    assert rt.now == 0.0
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 8}, scalar_args=(1.0,), sync=True)
    assert rt.now > 0.0
    assert rt.trace.n_tasks == 1
    assert rt.perfmodel.n_samples is not None
    rt.shutdown()


def test_context_manager_propagates_exceptions():
    with pytest.raises(ValueError):
        with Runtime(cpu_only(2)) as rt:
            raise ValueError("boom")
    # the session was closed on the error path (no half-open state leaks)
    with pytest.raises(RuntimeSystemError):
        rt.register(np.zeros(2, dtype=np.float32))


def test_context_manager_shuts_down_on_error_without_masking():
    """__exit__ runs shutdown after a body exception and the original
    exception — not any secondary shutdown error — reaches the caller."""
    cl = make_axpy_codelet(archs=("cpu",))
    with pytest.raises(ValueError, match="boom"):
        with Runtime(cpu_only(2), scheduler="eager", noise_sigma=0.0) as rt:
            y = rt.register(np.zeros(8, dtype=np.float32))
            x = rt.register(np.ones(8, dtype=np.float32))
            rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 8}, scalar_args=(1.0,))
            raise ValueError("boom")
    assert rt.engine._shutdown


def test_context_manager_shutdown_error_does_not_mask_body_error(monkeypatch):
    rt = Runtime(cpu_only(2))

    def broken_shutdown():
        raise RuntimeSystemError("shutdown exploded")

    monkeypatch.setattr(rt.engine, "shutdown", broken_shutdown)
    with pytest.raises(ValueError, match="boom"):  # not RuntimeSystemError
        with rt:
            raise ValueError("boom")


def test_context_manager_clean_path_raises_shutdown_errors(monkeypatch):
    rt = Runtime(cpu_only(2))

    def broken_shutdown():
        raise RuntimeSystemError("shutdown exploded")

    monkeypatch.setattr(rt.engine, "shutdown", broken_shutdown)
    with pytest.raises(RuntimeSystemError, match="shutdown exploded"):
        with rt:
            pass  # no body error: a shutdown failure must surface


def test_noise_sigma_zero_gives_exact_costs():
    rt = Runtime(cpu_only(1), scheduler="eager", noise_sigma=0.0)
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(1000, dtype=np.float32))
    x = rt.register(np.ones(1000, dtype=np.float32))
    t1 = rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 1000}, scalar_args=(1.0,))
    t2 = rt.submit(cl, [(y, "rw"), (x, "r")], ctx={"n": 1000}, scalar_args=(1.0,))
    rt.wait_for_all()
    # identical modeled durations (up to float representation of the
    # differing absolute start offsets)
    d1 = t1.end_time - t1.start_time
    d2 = t2.end_time - t2.start_time
    assert d1 == pytest.approx(d2, rel=1e-9)
    rt.shutdown()


def test_task_names_and_priority_flow_through():
    rt = Runtime(cpu_only(2), scheduler="eager", noise_sigma=0.0)
    cl = make_axpy_codelet(archs=("cpu",))
    y = rt.register(np.zeros(8, dtype=np.float32))
    x = rt.register(np.ones(8, dtype=np.float32))
    task = rt.submit(
        cl, [(y, "rw"), (x, "r")], ctx={"n": 8}, scalar_args=(1.0,),
        name="my_call", priority=3,
    )
    assert task.name == "my_call" and task.priority == 3
    rt.wait_for_all()
    assert rt.trace.tasks[0].name == "my_call"
    rt.shutdown()
