"""Per-request outputs: placeholders with kernels off, real buffers with
kernels on.

With ``run_kernels=False`` no kernel writes a request's output, so the
sessions register a read-only stride-0 view that still reports the real
buffer's ``nbytes`` (transfer sizes, footprints and traces are
unchanged); an sgemm session's shared operands are placeholders too.
With kernels on, outputs are real writable buffers.
"""

import tracemalloc

import numpy as np
import pytest

from repro.direct import sgemm_direct
from repro.hw.presets import platform_c2050
from repro.runtime.runtime import Runtime
from repro.serve import WORKLOADS, CompositionServer, TenantSpec, make_client
from repro.workloads import gemm_inputs


def _served_output(rt, workload, size):
    spec = TenantSpec("t", workload=workload, size=size, n_requests=1, seed=1)
    task = make_client(rt, spec).arrivals()[0].submit(rt)
    return task.handles[-1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_kernels_off_outputs_are_stride0_placeholders(workload):
    rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=False)
    h = _served_output(rt, workload, 64)
    real = np.zeros(h.array.shape, h.array.dtype)
    assert all(s == 0 for s in h.array.strides)
    assert not h.array.flags.writeable
    assert h.array.nbytes == real.nbytes
    assert h.nbytes == real.nbytes
    rt.shutdown()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_kernels_off_requests_share_one_placeholder(workload):
    rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=False)
    spec = TenantSpec("t", workload=workload, size=64, n_requests=2, seed=1)
    first, second = (r.submit(rt) for r in make_client(rt, spec).arrivals())
    h1, h2 = first.handles[-1], second.handles[-1]
    assert h1.array is h2.array
    assert h1 is not h2 and h1.handle_id != h2.handle_id
    rt.shutdown()


def test_kernels_off_sgemm_operands_are_placeholders():
    rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=False)
    spec = TenantSpec("t", workload="sgemm", size=64, n_requests=1, seed=1)
    task = make_client(rt, spec).arrivals()[0].submit(rt)
    for h in task.handles[:2]:
        assert h.array.shape == (64, 64) and h.array.dtype == np.float32
        assert h.array.strides == (0, 0)
        assert h.nbytes == 64 * 64 * 4
    rt.shutdown()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_kernels_on_outputs_are_writable(workload):
    rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=True)
    h = _served_output(rt, workload, 64)
    assert h.array.flags.writeable
    assert h.array.strides != (0,) * h.array.ndim
    rt.shutdown()


def test_served_sgemm_equals_direct_port():
    size = 48
    rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=True)
    h_c = _served_output(rt, "sgemm", size)
    rt.acquire(h_c, "r")
    served = h_c.array.copy()
    rt.shutdown()

    a, b, c = gemm_inputs(size, size, size, seed=1)
    ref_rt = Runtime(platform_c2050(), noise_sigma=0.0)
    sgemm_direct.sgemm_call(
        ref_rt, sgemm_direct.build_codelet(), a, b, c,
        size, size, size, 1.0, 0.0,
    )
    ref_rt.shutdown()
    np.testing.assert_allclose(served, c, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(served, a @ b, rtol=1e-4, atol=1e-4)


# Peak traced memory of a 4,000-request closed-loop kernels-off sgemm run
# (size 64, a 16 KiB output per request), after a warm-up run so lazy
# imports are not counted.  Measured on x86-64 Linux, CPython 3.11,
# NumPy 2: 3.43 MiB with placeholder outputs released as each request
# completes; 4.94 MiB when every finished output stays in the engine's
# residency table; 73 MiB when every request also allocates its zeroed
# output.  The bound leaves 25% headroom over the first and fails the
# other two.
_GATE_REQUESTS = 4000
_GATE_PEAK_MIB = 4.3
# Bytes still held after that run by allocations made in the trace
# module, per request: 129 B with each finished request kept once, as
# one entry in each of its thirteen list columns; 333 B when the trace
# also keeps every appended request record object.  25% headroom over
# the first; the second fails.
_GATE_RETAINED_B_PER_REQUEST = 160


def _closed_loop_run(n_requests):
    tenants = [
        TenantSpec(
            "t", workload="sgemm", size=64, rate_hz=None,
            n_requests=n_requests, concurrency=4, seed=0,
        )
    ]
    server = CompositionServer(platform_c2050(), tenants, check=False)
    server.run()
    server.shutdown()
    return server


def test_long_closed_loop_run_has_bounded_peak_memory():
    _closed_loop_run(8)  # warm-up: imports and lazy module state
    tracemalloc.start()
    try:
        server = _closed_loop_run(_GATE_REQUESTS)
        _, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert sum(r.completed for r in server.trace.requests) == _GATE_REQUESTS
    assert peak / 2**20 < _GATE_PEAK_MIB
    in_trace = tracemalloc.Filter(True, "*repro/runtime/stats.py")
    retained = sum(t.size for t in snapshot.filter_traces([in_trace]).traces)
    assert retained / _GATE_REQUESTS < _GATE_RETAINED_B_PER_REQUEST
