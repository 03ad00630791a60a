"""Serving with an active FaultModel: admission and coalescing must
stay balanced while the engine retries under the hood.

The key hazard: a faulted task is retried *inside* the engine (its
timeline is recomputed at submit), so from the server's point of view a
request is dispatched exactly once.  If retries leaked back into the
dispatch queue, backlog prediction would price the same work twice —
once through the engine's committed horizon and once through the
coalescer — and admission would shed too aggressively.
"""

from collections import Counter

import pytest

import repro.serve.server as server_mod
from repro.hw.faults import FaultModel
from repro.hw.presets import platform_c2050
from repro.runtime.engine import RecoveryPolicy
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    CompositionServer,
    TenantSpec,
)
from repro.serve.fairness import WeightedFairQueue

TENANTS = [
    TenantSpec("a", workload="sgemm", size=96, rate_hz=4000.0,
               n_requests=60, seed=1),
    TenantSpec("b", workload="bfs", size=200, rate_hz=1500.0,
               n_requests=30, seed=2),
]

FAULTS = FaultModel(kernel_fault_rate=0.3, seed=3)
RECOVERY = RecoveryPolicy(max_retries=8, backoff_base_s=1e-5)


def make_server(**kw):
    defaults = dict(tenants=TENANTS, scheduler="dmda",
                    faults=FAULTS, recovery=RECOVERY)
    defaults.update(kw)
    return CompositionServer(platform_c2050(), **defaults)


def _fault_count(server):
    return sum(1 for f in server.trace.faults if f.kind == "kernel")


def test_faulty_run_accounting_balances():
    server = make_server()
    report = server.run()
    assert _fault_count(server) > 0, "fault rate too low to exercise retries"
    offered = report.total_offered
    done = report.total_completed
    shed = report.total_shed
    failed = sum(t.n_failed for t in report.tenants)
    assert offered == 90
    assert done + shed + failed == offered
    # every admitted request released its slot exactly once
    assert server.admission.queue_depth() == 0
    assert server.admission.n_admitted == done + failed


def test_exhausted_recovery_surfaces_as_failures_not_stuck_slots():
    server = make_server(
        faults=FaultModel(kernel_fault_rate=1.0, seed=0),
        recovery=RecoveryPolicy(max_retries=2),
        admission=AdmissionPolicy(max_queue_depth=4),
    )
    report = server.run()
    failed = sum(t.n_failed for t in report.tenants)
    assert failed > 0
    assert report.total_completed + report.total_shed + failed == 90
    # failed requests still produced completion events: nothing leaked
    assert server.admission.queue_depth() == 0
    assert server.queue_depth() == 0


def test_backlog_estimate_never_prices_dispatched_work(monkeypatch):
    """A request that reached the engine (where faulted attempts retry)
    must never reappear in the coalescer term of the backlog estimate —
    that would count its retries twice in shed/delay decisions."""
    dispatched: set[tuple[str, int]] = set()
    orig_submit = server_mod.submit_batch
    orig_backlog = CompositionServer._predicted_backlog
    checks = []

    def spy_submit(runtime, batch, t, overhead_s):
        dispatched.update((req.tenant, req.req_id) for req in batch)
        return orig_submit(runtime, batch, t, overhead_s)

    def spy_backlog(self, t):
        queued = {(r.tenant, r.req_id) for r in self.coalescer.iter_requests()}
        assert not queued & dispatched, (
            "retrying request double-counted in backlog estimate"
        )
        checks.append(t)
        return orig_backlog(self, t)

    monkeypatch.setattr(server_mod, "submit_batch", spy_submit)
    monkeypatch.setattr(CompositionServer, "_predicted_backlog", spy_backlog)
    server = make_server(
        admission=AdmissionPolicy(max_backlog_s=5e-4),
        batching=BatchPolicy(max_batch=4),
    )
    report = server.run()
    assert _fault_count(server) > 0
    assert checks, "admission never consulted the backlog estimate"
    assert report.total_offered == 90


def test_bounded_admission_with_faults_sheds_but_stays_consistent():
    server = make_server(
        admission=AdmissionPolicy(max_queue_depth=2),
        max_inflight=1,
    )
    report = server.run()
    failed = sum(t.n_failed for t in report.tenants)
    assert report.total_shed > 0
    assert report.total_completed + report.total_shed + failed == 90
    assert server.admission.n_shed == report.total_shed
    assert server.admission.queue_depth() == 0


def test_delay_mode_with_faults_resolves_every_buffered_request():
    server = make_server(
        admission=AdmissionPolicy(
            max_queue_depth=2, on_overload="delay", max_delay_s=2e-3
        ),
        max_inflight=1,
    )
    report = server.run()
    failed = sum(t.n_failed for t in report.tenants)
    assert report.total_completed + report.total_shed + failed == 90
    assert not server._delayed, "buffered requests left unresolved"
    # a delayed-then-shed request is recorded once, not once per decision
    shed_ids = [
        (r.tenant, r.req_id) for r in server.trace.requests if r.shed
    ]
    assert len(shed_ids) == len(set(shed_ids))


def test_coalescing_under_faults_is_deterministic():
    kw = dict(batching=BatchPolicy(max_batch=8),
              admission=AdmissionPolicy(max_queue_depth=16))
    r1 = make_server(**kw).run()
    r2 = make_server(**kw).run()
    assert r1.to_dict() == r2.to_dict()


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_batch_records_are_coherent_under_faults(rate):
    server = make_server(
        faults=FaultModel(kernel_fault_rate=rate, seed=3) if rate else None,
        recovery=RECOVERY if rate else None,
        batching=BatchPolicy(max_batch=8),
    )
    server.run()
    for rec in server.trace.requests:
        if rec.completed:
            assert rec.batch_size >= 1
            assert rec.end_time > rec.start_time


@pytest.mark.parametrize(
    "scheduler, options", [("lookahead", {"window_size": 2}), ("dmda", {})]
)
def test_a_failed_request_is_one_whose_own_task_failed(
    monkeypatch, scheduler, options
):
    """A request's outcome is its own task's.  Under lookahead a window
    can flush inside one request's submit while another task's recovery
    runs out; the request whose submit raised must not be settled as
    failed while its own task completes."""
    charged = Counter()
    charge = WeightedFairQueue.charge

    def spy_charge(self, tenant, service):
        charged[tenant] += service
        return charge(self, tenant, service)

    released = Counter()
    on_completion = CompositionServer._on_completion

    def spy_completion(self, t, payload):
        req, _ = payload
        released[(req.tenant, req.req_id)] += 1
        return on_completion(self, t, payload)

    monkeypatch.setattr(WeightedFairQueue, "charge", spy_charge)
    monkeypatch.setattr(CompositionServer, "_on_completion", spy_completion)
    server = CompositionServer(
        platform_c2050(),
        [TenantSpec("a", workload="sgemm", size=96, rate_hz=20000.0,
                    n_requests=200, seed=1)],
        scheduler=scheduler,
        scheduler_options=options,
        batching=BatchPolicy(max_batch=8),
        faults=FaultModel(kernel_fault_rate=0.3, seed=5),
        recovery=RecoveryPolicy(max_retries=0),
    )
    report = server.run()
    rows = {t.name: t.task_id for t in server.trace.tasks}
    failed = [r for r in server.trace.requests if r.failed]
    done = [r for r in server.trace.requests if r.completed]
    assert failed, "fault rate too low to exhaust recovery"
    assert [r for r in failed if f"a/sgemm#{r.req_id}" in rows] == []
    assert all(rows.get(f"a/sgemm#{r.req_id}") == r.task_id for r in done)
    shed = report.total_shed
    assert len(done) + shed + len(failed) == report.total_offered == 200
    # every admission slot is released exactly once
    assert set(released) == {(r.tenant, r.req_id) for r in failed + done}
    assert set(released.values()) == {1}
    assert server.admission.queue_depth() == 0
    # the fair queue is charged exactly the completed requests' service
    assert charged["a"] == pytest.approx(
        sum(r.end_time - r.start_time for r in done), rel=1e-12
    )
