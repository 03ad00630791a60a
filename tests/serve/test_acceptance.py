"""The issue's acceptance criteria, asserted with fixed seeds.

Under identical offered load on the C2050 platform:

(a) admission control bounds p99 latency relative to the unbounded
    queue, at the price of a non-zero shed rate;
(b) with a flooding heavy tenant and a light tenant of near-identical
    per-request cost, throughput-greedy dispatch (``eager``) starves
    the light tenant (per-tenant p99 spread well beyond 2x) while the
    ``fair`` policy keeps the spread within 2x.

Both reuse the tuned study configuration from
:mod:`repro.experiments.serving` (warm perfmodel, batch cap 4,
in-flight cap 4, per-tenant quota 16) so the numbers here match the
published tables.
"""

import copy

import pytest

from repro.experiments.serving import (
    BATCH,
    MAX_INFLIGHT,
    OVERLOAD_HZ,
    TENANT_QUOTA,
    calibrate_perfmodel,
    fairness_tenants,
)
from repro.hw.presets import platform_c2050
from repro.serve import AdmissionPolicy, CompositionServer, TenantSpec


@pytest.fixture(scope="module")
def machine():
    return platform_c2050()


def serve(machine, tenants, scheduler, admission, perf):
    server = CompositionServer(
        machine,
        tenants=tenants,
        scheduler=scheduler,
        admission=admission,
        batching=BATCH,
        max_inflight=MAX_INFLIGHT,
        perfmodel=copy.deepcopy(perf),
    )
    return server.run()


def test_admission_bounds_p99_under_identical_load(machine):
    tenants = [
        TenantSpec(
            "t0", workload="sgemm", size=256, rate_hz=OVERLOAD_HZ,
            n_requests=400, seed=5,
        )
    ]
    perf = calibrate_perfmodel(machine, tenants)
    unbounded = serve(machine, tenants, "dmda", None, perf)
    bounded = serve(
        machine, tenants, "dmda", AdmissionPolicy(max_queue_depth=16), perf
    )
    t_unb, t_bnd = unbounded.tenants[0], bounded.tenants[0]
    # same offered load either way
    assert t_unb.n_offered == t_bnd.n_offered == 400
    assert t_unb.n_shed == 0
    # the bound costs sheds and buys the tail
    assert t_bnd.n_shed > 0
    assert t_bnd.p99_s < t_unb.p99_s
    assert t_bnd.mean_queue_wait_s < t_unb.mean_queue_wait_s


def test_fair_bounds_tenant_spread_where_eager_starves(machine):
    tenants = fairness_tenants(n_requests=400, seed=7)
    perf = calibrate_perfmodel(machine, tenants)
    admission = AdmissionPolicy(max_queue_per_tenant=TENANT_QUOTA)
    greedy = serve(machine, tenants, "eager", admission, perf)
    fair = serve(machine, tenants, "fair", admission, perf)
    # greedy dispatch starves the light tenant's minority shape
    assert greedy.p99_spread() > 2.0
    assert (
        greedy.for_tenant("light").p99_s > greedy.for_tenant("heavy").p99_s
    )
    # weighted fair queueing keeps per-tenant p99s within 2x
    assert fair.p99_spread() <= 2.0
    # fairness does not come from refusing the light tenant's load
    assert fair.for_tenant("light").n_shed == 0
    assert (
        fair.for_tenant("light").p99_s
        < greedy.for_tenant("light").p99_s
    )
