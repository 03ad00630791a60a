"""Coalescer: same-shape fusion, greedy vs tenant-led draining."""

import pytest

from repro.serve import BatchPolicy, Coalescer
from repro.serve.client import Request


def req(tenant, req_id, arrival, shape):
    return Request(
        tenant=tenant,
        req_id=req_id,
        arrival_s=arrival,
        codelet_name=shape[0],
        shape_key=shape,
        submit=lambda rt: None,
    )


A = ("sgemm", 256)
B = ("sgemm", 255)


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch=0)


def test_push_and_introspection():
    c = Coalescer()
    c.push(req("x", 0, 0.0, A))
    c.push(req("y", 1, 0.1, A))
    c.push(req("x", 2, 0.2, B))
    assert len(c) == 3
    assert not c.empty
    assert c.pending_for("x") == 2
    assert c.tenants_waiting() == {"x", "y"}
    assert c.oldest_for("x").req_id == 0


def test_take_greedy_drains_deepest_bucket():
    c = Coalescer(BatchPolicy(max_batch=8))
    for i in range(3):
        c.push(req("x", i, i * 0.1, A))
    c.push(req("y", 9, 0.05, B))
    batch = c.take_greedy()
    assert [r.req_id for r in batch] == [0, 1, 2]  # FIFO within bucket
    assert c.take_greedy()[0].req_id == 9
    assert c.empty
    assert c.take_greedy() == []


def test_take_greedy_respects_max_batch():
    c = Coalescer(BatchPolicy(max_batch=2))
    for i in range(5):
        c.push(req("x", i, i * 0.1, A))
    assert [r.req_id for r in c.take_greedy()] == [0, 1]
    assert [r.req_id for r in c.take_greedy()] == [2, 3]
    assert [r.req_id for r in c.take_greedy()] == [4]
    assert c.n_batches == 3
    assert c.n_fused == 2  # two requests rode along in full batches
    assert c.mean_batch_size == pytest.approx(5 / 3)


def test_take_for_leads_with_tenant_and_fuses_others():
    c = Coalescer(BatchPolicy(max_batch=4))
    c.push(req("heavy", 0, 0.0, A))
    c.push(req("heavy", 1, 0.1, A))
    c.push(req("light", 2, 0.2, A))  # same shape as heavy's
    batch = c.take_for("light")
    # light's request leads, heavy's compatible requests fuse in behind
    assert batch[0].tenant == "light"
    assert {r.tenant for r in batch[1:]} == {"heavy"}
    assert len(batch) == 3


def test_take_for_unknown_tenant_returns_empty():
    c = Coalescer()
    c.push(req("x", 0, 0.0, A))
    assert c.take_for("nobody") == []
    assert len(c) == 1


def test_take_for_picks_tenants_oldest_bucket():
    c = Coalescer()
    c.push(req("x", 0, 0.5, A))
    c.push(req("x", 1, 0.1, B))  # older request, different shape
    batch = c.take_for("x")
    assert batch[0].req_id == 1
    assert batch[0].shape_key == B


def test_length_follows_pushes_and_drains():
    c = Coalescer(BatchPolicy(max_batch=2))
    for i in range(3):
        c.push(req("x", i, i * 0.1, A))
    c.push(req("y", 3, 0.05, B))
    assert len(c) == 4
    c.take_greedy()  # two of A's three
    assert len(c) == 2 and not c.empty
    c.take_for("y")
    c.take_greedy()
    assert len(c) == 0 and c.empty
