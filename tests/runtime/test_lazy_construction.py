"""A runtime builds only what its run uses.

Most policies never draw a random number and most runs record no
eviction, fault, request or host access, so the noise and engine
generators and those four record stores are built at first use.  Being
lazy must not change a single number: the streams are the eager ones,
and an unwritten kind reads exactly as an empty one did.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw.noise import NoiseModel
from repro.runtime import Runtime
from repro.runtime.stats import (
    ExecutionTrace,
    FaultRecord,
    RequestRecord,
    TaskRecord,
)
from repro.runtime.trace_export import trace_from_dict, trace_to_dict

LAZY_KINDS = ("evictions", "faults", "requests", "accesses")


def _count_generators(monkeypatch) -> list:
    calls: list = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return calls


@pytest.mark.parametrize("policy", ["eager", "dmda", "fair"])
def test_building_a_runtime_constructs_no_generator(machine, monkeypatch, policy):
    calls = _count_generators(monkeypatch)
    rt = Runtime(machine, scheduler=policy, seed=4)  # default sigma 0.03
    assert calls == []
    rt.shutdown()


def test_noise_draws_match_an_eager_stream():
    noise = NoiseModel(sigma=0.05, seed=7)
    ref = np.random.default_rng(7)
    want = [2.0 * ref.lognormal(mean=-0.5 * 0.05**2, sigma=0.05) for _ in range(5)]
    assert [noise.perturb(2.0) for _ in range(5)] == want


def test_engine_draws_match_an_eager_stream(machine, monkeypatch):
    rt = Runtime(machine, scheduler="random", seed=3)
    calls = _count_generators(monkeypatch)
    draws = [rt.engine.random() for _ in range(5)]
    assert len(calls) == 1  # built at the first draw, once
    ref = np.random.default_rng(3 + 0x5EED)
    assert draws == [float(ref.random()) for _ in range(5)]
    rt.shutdown()


def _stores(trace: ExecutionTrace) -> set[str]:
    kinds = set(trace.RECORD_KINDS)
    return {name for name in vars(trace) if name.lstrip("_") in kinds}


def _fault() -> FaultRecord:
    return FaultRecord.make("kernel", 1.0, task_id=3, worker_ids=(1,))


def test_a_fresh_trace_holds_only_the_hot_path_stores():
    trace = ExecutionTrace()
    assert _stores(trace) == {"_tasks", "tasks", "_transfers", "transfers"}


def test_unwritten_kinds_read_empty_without_being_built():
    trace = ExecutionTrace()
    assert (trace.n_faults, trace.n_requests, trace.n_evictions) == (0, 0, 0)
    assert (trace.n_shed, trace.n_failed_requests) == (0, 0)
    assert trace.faults_by_kind() == {} and trace.tenants() == []
    assert trace.requests_for("t") == []
    assert len(trace.columns("tenant", "requests")) == 0
    assert len(trace.columns("time", "accesses")) == 0
    state = trace.state_dict()
    assert all(state[kind] == [] for kind in LAZY_KINDS)
    assert "faults" not in trace.summary()
    canon = trace.canonicalized()
    trace.clear()
    assert _stores(trace) == _stores(canon) == {
        "_tasks", "tasks", "_transfers", "transfers"
    }
    # the public attributes still read as the empty lists they were
    assert list(trace.faults) == [] and len(trace.requests) == 0
    assert trace.evictions == [] and trace.accesses() == []


def test_first_write_after_a_read_is_counted():
    trace = ExecutionTrace()
    assert trace.faults_by_kind() == {}  # derived stats caught up at zero
    trace.record_fault(_fault())
    assert trace.faults_by_kind() == {"kernel": 1}
    assert trace.faults_by_worker() == {1: 1}
    trace.requests.append(RequestRecord.make("t", 0, "c", 0.0, shed=True))
    assert (trace.n_requests, trace.n_shed, trace.tenants()) == (1, 1, ["t"])
    # another trace's unwritten kinds stay empty
    other = ExecutionTrace()
    assert (other.n_faults, other.n_requests, other.n_shed) == (0, 0, 0)
    assert list(other.faults) == [] and other.faults_by_kind() == {}


def test_state_fields_compare_lazy_and_built_kinds_alike():
    a, b = ExecutionTrace(), ExecutionTrace()
    len(b.faults)  # builds b's store: still equal to a's unbuilt one
    assert all(getattr(a, f) == getattr(b, f) for f in a.STATE_FIELDS)
    b.record_fault(_fault())
    assert a.faults != b.faults


def test_dict_round_trip_keeps_unwritten_kinds_unbuilt(machine):
    trace = ExecutionTrace()
    trace.tasks.append(
        TaskRecord.make(1, "t#1", "c", "c_cpu", "cpu", (0,), 0.0, 0.0, 0.0, 1.0)
    )
    trace.record_fault(_fault())
    doc = trace_to_dict(trace, machine)
    back, info = trace_from_dict(doc)
    assert trace_to_dict(back, info) == doc
    assert back.state_dict()["faults"] == trace.state_dict()["faults"]
    assert _stores(back) == {
        "_tasks", "tasks", "_transfers", "transfers", "_faults", "faults"
    }
