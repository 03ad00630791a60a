"""``unregister_submit``: release a dead handle once its tasks complete.

Like StarPU's ``starpu_data_unregister_submit``, the call drops a handle
nobody will read again without flushing it home: it leaves the
engine's device-residency tables once every task submitted on it so
far has completed, makes no copy and writes no trace row.
"""

import numpy as np
import pytest

from repro.errors import (
    DataConsistencyError,
    RuntimeSystemError,
    UnrecoverableTaskError,
)
from repro.hw.description import HOST_NODE
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime
from repro.runtime.engine import RecoveryPolicy
from repro.runtime.task import TaskState
from repro.runtime.trace_export import trace_to_dict
from repro.serve import CompositionServer, TenantSpec

GPU = 1  # the C2050's device memory node


def _gpu_codelet(name="k"):
    return Codelet(
        name, [ImplVariant(name, Arch.CUDA, lambda ctx, *a: None, lambda c, d: 1e-4)]
    )


def _rt(scheduler="eager", **kw):
    return Runtime(platform_c2050(), scheduler=scheduler, noise_sigma=0.0, **kw)


def _resident(rt, h):
    return h.handle_id in rt.engine._resident[GPU]


def _rows(trace):
    return {kind: len(trace._view(kind)) for kind in trace.RECORD_KINDS}


def test_releases_at_once_when_nothing_is_pending():
    rt = _rt()
    h = rt.register(np.zeros(1024, np.float32), "out")
    task = rt.submit(_gpu_codelet(), [(h, "w")])
    # the eager engine completed the task inside submit
    assert task.state is TaskState.DONE and _resident(rt, h)
    rt.unregister_submit(h)
    assert not _resident(rt, h)
    assert rt.engine.resident_bytes(GPU) == 0
    assert not rt.engine._releasing
    rt.shutdown()


def test_session_delegates_to_the_runtime():
    from repro import Session

    with Session("c2050", scheduler="eager", noise_sigma=0.0) as s:
        h = s.register(np.zeros(1024, np.float32), "out")
        s.submit(_gpu_codelet(), [(h, "w")])
        s.unregister_submit(h)
        assert h.unregistered and not _resident(s, h)


def test_a_handle_no_task_touched_releases_at_once():
    rt = _rt()
    h = rt.register(np.zeros(16), "idle")
    rt.unregister_submit(h)
    assert h.unregistered and not rt.engine._releasing
    rt.shutdown()


def _windowed_rt():
    # a bulk policy buffers submitted tasks until its window flushes
    return _rt("lookahead", scheduler_options={"window_size": 64})


def _watch_releases(rt, handle, tasks):
    """Record, at the moment ``handle`` is released, the states of
    ``tasks`` and whether it still occupied device memory until then."""
    seen = []
    settle = rt.engine._settle_releases

    def spy(handles):
        awaiting = handle.handle_id in rt.engine._releasing
        was_resident = _resident(rt, handle)
        settle(handles)
        if awaiting and handle.handle_id not in rt.engine._releasing:
            seen.append(([t.state for t in tasks], was_resident))

    rt.engine._settle_releases = spy
    return seen


def test_deferred_past_a_pending_writer_and_its_readers():
    rt = _windowed_rt()
    h = rt.register(np.zeros(1024, np.float32), "h")
    sink = rt.register(np.zeros(1024, np.float32), "sink")
    tasks = [rt.submit(_gpu_codelet("w"), [(h, "w")])]
    tasks += [rt.submit(_gpu_codelet("r"), [(h, "r"), (sink, "rw")])
              for _ in range(2)]
    seen = _watch_releases(rt, h, tasks)
    rt.unregister_submit(h)
    assert all(t.state is TaskState.SUBMITTED for t in tasks)
    assert rt.engine._releasing == {h.handle_id: h} and seen == []
    rt.wait_for_all()
    assert seen == [([TaskState.DONE] * 3, True)]
    assert not _resident(rt, h) and not rt.engine._releasing
    rt.shutdown()


def test_deferred_past_pending_readers_only():
    rt = _windowed_rt()
    h = rt.register(np.zeros(1024, np.float32), "h")
    sink = rt.register(np.zeros(1024, np.float32), "sink")
    rt.submit(_gpu_codelet("w"), [(h, "w")])
    rt.engine.flush_window()  # the writer completes
    readers = [rt.submit(_gpu_codelet("r"), [(h, "r"), (sink, "rw")])
               for _ in range(2)]
    seen = _watch_releases(rt, h, readers)
    rt.unregister_submit(h)
    assert h.handle_id in rt.engine._releasing and _resident(rt, h)
    rt.wait_for_all()
    assert seen == [([TaskState.DONE] * 2, True)]
    assert not _resident(rt, h) and _resident(rt, sink)
    rt.shutdown()


def test_later_calls_on_the_handle_raise():
    rt = _rt()
    h = rt.register(np.zeros(64, np.float32), "gone")
    rt.submit(_gpu_codelet(), [(h, "w")])
    rt.unregister_submit(h)
    with pytest.raises(RuntimeSystemError, match="unregistered"):
        rt.submit(_gpu_codelet(), [(h, "r")])
    with pytest.raises(RuntimeSystemError, match="unregistered"):
        rt.acquire(h, "r")
    with pytest.raises(RuntimeSystemError, match="unregistered"):
        rt.unregister(h)
    with pytest.raises(RuntimeSystemError, match="unregistered"):
        rt.unregister_submit(h)
    rt.shutdown()


def test_a_partitioned_handle_is_refused():
    rt = _rt()
    h = rt.register(np.zeros(64, np.float32), "split")
    rt.partition_equal(h, 2)
    with pytest.raises(DataConsistencyError, match="partitioned"):
        rt.unregister_submit(h)
    rt.shutdown()


@pytest.mark.parametrize("deferred", [False, True])
def test_makes_no_transfer_and_writes_no_trace_row(deferred):
    def run(release):
        rt = _windowed_rt() if deferred else _rt()
        h = rt.register(np.zeros(1024, np.float32), "out")
        rt.submit(_gpu_codelet(), [(h, "w")])
        rows = _rows(rt.trace)
        if release:
            rt.unregister_submit(h)
            assert _rows(rt.trace) == rows
        rt.shutdown()
        # the GPU holds the only valid copy: a flush would copy it home
        assert h.state(GPU).value == "modified"
        assert not h.is_valid(HOST_NODE)
        return trace_to_dict(rt.trace.canonicalized(), rt.machine)

    assert run(True) == run(False)


@pytest.mark.parametrize("scheduler", ["dmda", "lookahead"])
def test_a_request_whose_recovery_is_exhausted_leaves_no_output_resident(
    scheduler,
):
    tenants = [TenantSpec("t", workload="sgemm", size=96, rate_hz=4000.0,
                          n_requests=12, seed=1)]
    server = CompositionServer(
        platform_c2050(), tenants, scheduler=scheduler,
        faults=FaultModel(kernel_fault_rate=1.0, seed=0),
        recovery=RecoveryPolicy(max_retries=2),
    )
    report = server.run()
    assert report.tenants[0].n_failed == 12
    # the output is write-only: no faulting attempt copied it anywhere
    assert server.trace.transfers
    assert not any(
        r.handle_name.startswith("t:C") for r in server.trace.transfers
    )
    shared = {h.handle_id for h in server._clients["t"].session.inputs}
    engine = server.engine
    assert set(engine._resident[GPU]) <= shared
    assert not engine._releasing
    server.shutdown()


@pytest.mark.parametrize("scheduler", ["dmda", "lookahead"])
def test_an_exhausted_task_releases_the_rw_output_it_staged(scheduler):
    rt = _rt(scheduler, faults=FaultModel(kernel_fault_rate=1.0, seed=0),
             recovery=RecoveryPolicy(max_retries=2))
    h = rt.register(np.zeros(1024, np.float32), "out")
    task = rt.make_task(_gpu_codelet(), [(h, "rw")])
    with pytest.raises(UnrecoverableTaskError):
        try:
            rt.engine.submit(task)  # dmda places (and loses) it here
        finally:
            rt.unregister_submit(h)  # lookahead defers the release ...
        rt.engine.flush_window()  # ... to this flush's abort
    assert task.chosen_variant is None
    # each attempt staged the rw output on the GPU before faulting
    assert any(r.handle_name == "out" for r in rt.trace.transfers)
    assert not _resident(rt, h) and not rt.engine._releasing
    assert rt.engine.resident_bytes(GPU) == 0
    rt.shutdown()
