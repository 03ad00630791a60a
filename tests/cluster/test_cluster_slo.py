"""The cluster SLO folds agree with a loop over the request records.

``windowed_p99`` finds each window's bounds by ``searchsorted`` over the
completion column and ``cluster_slo_report`` groups by the coded tenant
column.  The references below are the record loops they replaced; the
results must be equal to the last bit.
"""

import math

import pytest

from repro.cluster import (
    BrownoutPolicy,
    Cluster,
    ClusterRequestRecord,
    ClusterTenant,
    ClusterTrace,
    HedgePolicy,
    NodeFaultModel,
    cluster_slo_report,
    windowed_p99,
)
from repro.serve.slo import SloReport, percentile, tenant_slo


@pytest.fixture(scope="module")
def trace():
    specs = [
        ClusterTenant("alpha", workload="sgemm", size=64, rate_hz=4000.0,
                      n_requests=160, seed=11, priority=2, slo_ms=5.0),
        ClusterTenant("beta", workload="bfs", size=200, rate_hz=4000.0,
                      n_requests=160, seed=22, priority=1),
        ClusterTenant("gamma", workload="pathfinder", size=48,
                      rate_hz=4000.0, n_requests=80, seed=33, priority=0),
    ]
    c = Cluster(
        5,
        specs,
        seed=0,
        node_faults=NodeFaultModel(
            slow_at={2: (0.005, 30.0), 3: (0.005, 30.0)},
            partition_at={2: (0.008, 0.03)},
        ),
        hedge=HedgePolicy(after_s=1e-3),
        brownout=BrownoutPolicy(high_water=1.0, low_water=0.5),
        check=False,
    )
    tr = c.run()
    c.shutdown()
    assert tr.n_completed and tr.n_shed and tr.n_hedges
    return tr


def _loop_p99(trace, window_s, step_s, tenants):
    pairs = sorted(
        (r.end_time, r.latency)
        for r in trace.requests
        if r.completed and (tenants is None or r.tenant in tenants)
    )
    if not pairs:
        return []
    out, lo, hi = [], 0, 0
    for k in range(1, int(math.ceil(pairs[-1][0] / step_s)) + 2):
        t = k * step_s
        while hi < len(pairs) and pairs[hi][0] <= t:
            hi += 1
        while lo < hi and pairs[lo][0] <= t - window_s:
            lo += 1
        out.append((t, percentile([lat for _, lat in pairs[lo:hi]], 99)))
        if t >= pairs[-1][0]:
            break
    return out


@pytest.mark.parametrize("window_s, step_s", [(2e-2, 5e-3), (1e-3, 1e-3), (3e-3, 7e-4)])
@pytest.mark.parametrize("tenants", [None, {"alpha", "beta"}, {"gamma"}, {"nobody"}])
def test_windowed_p99_matches_the_record_loop(trace, window_s, step_s, tenants):
    got = windowed_p99(trace, window_s=window_s, step_s=step_s, tenants=tenants)
    assert repr(got) == repr(_loop_p99(trace, window_s, step_s, tenants))


def test_a_window_is_open_below_and_closed_above():
    # completions on the window bounds: (t - window_s, t] decides them
    trace = ClusterTrace()
    for i, end in enumerate((0.25, 0.5, 0.5, 0.75, 1.0)):
        trace.requests.append(ClusterRequestRecord.make(
            tenant="t", req_id=i, priority=1, codelet="c", arrival_time=0.0,
            outcome="completed", end_time=end,
        ))
    got = windowed_p99(trace, window_s=0.5, step_s=0.25)
    assert repr(got) == repr(_loop_p99(trace, 0.5, 0.25, None))
    assert len(got) == 4 and got[2][1] != got[3][1]


def test_slo_report_matches_the_record_loop(trace):
    records = list(trace.requests)
    t0 = min(r.arrival_time for r in records)
    t1 = max([r.arrival_time for r in records]
             + [r.end_time for r in records if r.completed])
    want = SloReport(window_s=max(t1 - t0, 0.0))
    for tenant in dict.fromkeys(r.tenant for r in records):
        mine = [r for r in records if r.tenant == tenant]
        want.tenants.append(tenant_slo(tenant, mine, want.window_s))
    assert repr(cluster_slo_report(trace)) == repr(want)
