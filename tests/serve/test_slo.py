"""SLO accounting: percentiles, per-tenant rollups, spread."""

import math

import pytest

from repro.runtime.stats import ExecutionTrace, RequestRecord
from repro.serve import SloReport, percentile, slo_report
from repro.serve.slo import TenantSlo, percentiles, tenant_slo


def test_percentile_basics():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == pytest.approx(2.5)
    assert percentile([5.0], 99) == 5.0
    assert math.isnan(percentile([], 50))
    with pytest.raises(ValueError):
        percentile(xs, 101)


@pytest.mark.parametrize(
    "values", [[], [5.0], [3.0, 1.0, 2.0], [0.25, 4.0, 4.0, 1.5, 9.75, 0.5]]
)
def test_percentiles_equal_percentile_at_each_q(values):
    qs = (0.0, 12.5, 50.0, 95.0, 99.0, 100.0)
    got = percentiles(values, qs)
    assert len(got) == len(qs)
    for q, value in zip(qs, got):
        want = percentile(values, q)
        # bit-equal, NaN included (an empty input gives NaN at every q)
        assert value == want or (math.isnan(value) and math.isnan(want))


def test_percentiles_interpolate_one_sorted_copy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentiles(values, (0, 50, 100, 25)) == [1.0, 2.5, 4.0, 1.75]
    assert values == [4.0, 1.0, 3.0, 2.0]  # the input is left unsorted


@pytest.mark.parametrize("q", [-0.5, 100.5])
def test_percentiles_reject_an_out_of_range_q(q):
    with pytest.raises(ValueError):
        percentiles([1.0, 2.0], (50.0, q))
    with pytest.raises(ValueError):
        percentiles([], (q,))


def rec(tenant, req_id, arrival, end, **kw):
    defaults = dict(
        tenant=tenant,
        req_id=req_id,
        codelet="sgemm",
        arrival_time=arrival,
        dispatch_time=arrival + 0.001,
        start_time=arrival + 0.002,
        end_time=end,
    )
    defaults.update(kw)
    return RequestRecord.make(**defaults)


def test_request_record_decomposition():
    r = rec("t", 0, 1.0, 1.010)
    assert r.completed
    assert r.latency == pytest.approx(0.010)
    assert r.queue_wait == pytest.approx(0.001)
    assert r.pending_wait == pytest.approx(0.001)
    assert r.exec_s == pytest.approx(0.008)
    shed = RequestRecord.make(
        tenant="t", req_id=1, codelet="sgemm", arrival_time=0.0, shed=True
    )
    assert not shed.completed
    assert math.isnan(shed.latency)


def test_tenant_slo_counts_and_rates():
    records = [rec("t", i, i * 0.01, i * 0.01 + 0.005) for i in range(8)]
    records.append(
        RequestRecord.make(
            tenant="t", req_id=8, codelet="sgemm", arrival_time=0.2, shed=True
        )
    )
    records.append(
        RequestRecord.make(
            tenant="t",
            req_id=9,
            codelet="sgemm",
            arrival_time=0.3,
            failed=True,
            dispatch_time=0.301,
        )
    )
    slo = tenant_slo("t", records, window_s=1.0)
    assert slo.n_offered == 10
    assert slo.n_completed == 8
    assert slo.n_shed == 1
    assert slo.n_failed == 1
    assert slo.shed_rate == pytest.approx(0.1)
    assert slo.goodput_rps == pytest.approx(8.0)
    assert slo.p50_s == pytest.approx(0.005)


def test_slo_report_from_trace_and_spread():
    trace = ExecutionTrace()
    for i in range(4):
        trace.record_request(rec("a", i, i * 0.01, i * 0.01 + 0.002))
    for i in range(4):
        trace.record_request(rec("b", i, i * 0.01, i * 0.01 + 0.004))
    report = slo_report(trace)
    assert [t.tenant for t in report.tenants] == ["a", "b"]
    assert report.total_offered == 8
    assert report.p99_spread() == pytest.approx(2.0)
    assert report.for_tenant("b").p99_s == pytest.approx(0.004)
    with pytest.raises(KeyError):
        report.for_tenant("zzz")
    d = report.to_dict()
    assert {t["tenant"] for t in d["tenants"]} == {"a", "b"}
    assert d["p99_spread"] == pytest.approx(2.0)


def test_spread_needs_two_tenants():
    report = SloReport(window_s=1.0, tenants=[])
    assert math.isnan(report.p99_spread())
    report.tenants.append(
        TenantSlo(
            tenant="only",
            n_offered=1,
            n_completed=1,
            n_shed=0,
            n_failed=0,
            goodput_rps=1.0,
            p50_s=0.1,
            p95_s=0.1,
            p99_s=0.1,
            mean_queue_wait_s=0.0,
            mean_pending_wait_s=0.0,
            mean_exec_s=0.1,
            mean_transfer_s=0.0,
            mean_batch_size=1.0,
        )
    )
    assert math.isnan(report.p99_spread())
