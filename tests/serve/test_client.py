"""Tenant specs and load generators."""

import pytest

from repro.errors import PeppherError
from repro.hw.presets import platform_c2050
from repro.runtime.runtime import Runtime
from repro.serve import WORKLOADS, TenantSpec, make_client
from repro.serve.client import ClosedLoopClient, OpenLoopClient


@pytest.fixture
def runtime():
    rt = Runtime(platform_c2050(), noise_sigma=0.0, run_kernels=False)
    yield rt
    rt.shutdown()


def test_spec_validation():
    with pytest.raises(PeppherError):
        TenantSpec("t", workload="nope")
    with pytest.raises(PeppherError):
        TenantSpec("t", size=0)
    with pytest.raises(PeppherError):
        TenantSpec("t", rate_hz=-1.0)
    with pytest.raises(PeppherError):
        TenantSpec("t", n_requests=0)
    with pytest.raises(PeppherError):
        TenantSpec("t", rate_hz=None, concurrency=0)
    with pytest.raises(PeppherError):
        TenantSpec("t", weight=0.0)
    with pytest.raises(PeppherError):
        TenantSpec("")


def test_every_workload_has_a_session(runtime):
    for name in WORKLOADS:
        spec = TenantSpec("t", workload=name, size=64, n_requests=2)
        client = make_client(runtime, spec)
        reqs = client.arrivals()
        assert len(reqs) == 2
        assert all(r.shape_key[0] == name for r in reqs)


def test_open_loop_arrivals_sorted_and_deterministic(runtime):
    spec = TenantSpec("t", rate_hz=500.0, n_requests=20, seed=3)
    a = [r.arrival_s for r in make_client(runtime, spec).arrivals()]
    b = [r.arrival_s for r in make_client(runtime, spec).arrivals()]
    assert a == b
    assert a == sorted(a)
    assert len(a) == 20
    # a different seed gives a different arrival process
    other = TenantSpec("t", rate_hz=500.0, n_requests=20, seed=4)
    assert [r.arrival_s for r in make_client(runtime, other).arrivals()] != a


def test_open_loop_mean_rate_roughly_matches(runtime):
    spec = TenantSpec("t", rate_hz=1000.0, n_requests=400, seed=0)
    arrivals = [r.arrival_s for r in make_client(runtime, spec).arrivals()]
    mean_gap = arrivals[-1] / (len(arrivals) - 1)
    assert mean_gap == pytest.approx(1e-3, rel=0.25)


def test_closed_loop_initial_wave_and_feedback(runtime):
    spec = TenantSpec(
        "t", rate_hz=None, n_requests=5, concurrency=2, think_time_s=0.01
    )
    client = make_client(runtime, spec)
    assert isinstance(client, ClosedLoopClient)
    wave = client.arrivals()
    assert len(wave) == 2  # one per in-flight user
    nxt = client.on_complete(wave[0], end_s=1.0)
    assert nxt is not None and nxt.arrival_s == pytest.approx(1.01)
    client.on_complete(wave[1], end_s=1.0)
    last = client.on_complete(nxt, end_s=2.0)
    assert last is not None
    # budget of 5 requests: 2 initial + 3 follow-ups, then None
    assert client.on_complete(last, end_s=3.0) is None


def test_open_loop_client_type_and_ids(runtime):
    spec = TenantSpec("alice", rate_hz=100.0, n_requests=3)
    client = make_client(runtime, spec)
    assert isinstance(client, OpenLoopClient)
    reqs = client.arrivals()
    assert [r.req_id for r in reqs] == [0, 1, 2]
    assert all(r.tenant == "alice" for r in reqs)
    assert client.on_complete(reqs[0], end_s=1.0) is None


def test_submit_produces_runnable_tasks(runtime):
    spec = TenantSpec("t", workload="sgemm", size=32, n_requests=2, seed=1)
    reqs = make_client(runtime, spec).arrivals()
    t0 = reqs[0].submit(runtime)
    t1 = reqs[1].submit(runtime)
    assert t0.end_time > t0.start_time
    assert t1.end_time > t1.start_time
    # shared read-only inputs, fresh output buffer per request
    assert t0.handles[0] is t1.handles[0]
    assert t0.handles[2] is not t1.handles[2]


@pytest.mark.parametrize("scheduler", ["dmda", "fair", "lookahead"])
@pytest.mark.parametrize("workload", ["sgemm", "pathfinder", "bfs"])
def test_a_request_output_is_written_on_the_device_never_uploaded(
    workload, scheduler
):
    from repro.serve import CompositionServer

    spec = TenantSpec("t", workload=workload, size=96, rate_hz=4000.0,
                      n_requests=16, seed=1)
    server = CompositionServer(platform_c2050(), [spec], scheduler=scheduler)
    report = server.run()
    assert report.tenants[0].n_completed == 16
    name = server._clients["t"].session._invocation()[0][0]
    outputs = {f"t:{name}{r.req_id}" for r in server.trace.requests}
    # some requests ran on the GPU, yet every copy moved a shared
    # input: the output is written there, never uploaded
    assert any(t.node == 1 for t in server.trace.tasks)
    moved = {r.handle_name for r in server.trace.transfers}
    assert not moved & outputs
    server.shutdown()
