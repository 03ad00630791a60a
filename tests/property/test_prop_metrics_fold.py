"""Property: the engine metric catalogue is the fold of what the engine
recorded while the suite was attached.

Hypothesis draws interleavings of submits (three codelets, kernel and
transfer faults on, a GPU small enough to evict), mid-run reads,
``trace.clear()``, ``detach`` and re-attach.  Oracles:

- every counter, and every histogram's count, buckets and sum, equals
  a ``+=`` loop over the records the engine emitted while attached.
  The loop reads the engine's typed events, not the trace, so it is an
  independent path to the same facts; floats compare under ``==``, so
  histogram sums must add in row order;
- the schedule of mid-run reads does not change the final snapshot.

A clear drops the rows no read has seen yet, so the ``clear`` step
reads first (``collect``), as a user who clears an observed trace must.
"""

import json
from bisect import bisect_left
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.errors import UnrecoverableTaskError
from repro.hw.description import DIRECTIONS, make_machine, transfer_direction
from repro.hw.devices import tesla_c2050, xeon_e5520_core
from repro.hw.faults import FaultModel
from repro.obs import DEFAULT_BUCKETS, MetricsSuite
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

MB = 1 << 20


def _codelet(name, archs, k):
    cost = {Arch.CPU: 2e-3 * (k + 1), Arch.CUDA: 5e-5 * (k + 1)}
    return Codelet(
        name,
        [
            ImplVariant(f"{name}_{a.value}", a, lambda ctx, *args: None,
                        lambda c, d, s=cost[a]: s)
            for a in archs
        ],
    )


# gamma runs on the GPU only, so every policy stages, copies back and
# evicts
_CODELETS = [
    _codelet("alpha", (Arch.CPU, Arch.CUDA), 0),
    _codelet("beta", (Arch.CPU, Arch.CUDA), 1),
    _codelet("gamma", (Arch.CUDA,), 2),
]
_N_HANDLES = 5

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, len(_CODELETS) - 1),
            st.integers(0, _N_HANDLES - 1),
            st.integers(1, 4),
        ),
        st.tuples(st.sampled_from(["wait", "read", "clear", "detach", "attach"])),
    ),
    max_size=25,
)


class _Reference:
    """The engine catalogue as ``+=`` loops over the engine's events,
    counting only while :attr:`attached`."""

    def __init__(self, events) -> None:
        self.attached = True
        self.counters: dict = {}
        self.hists: dict = {}
        for kind in ("submit", "schedule", "complete", "transfer", "evict", "fault"):
            events.subscribe(kind, getattr(self, f"_on_{kind}"))

    def _inc(self, name, labels, value=1) -> None:
        if self.attached:
            key = (name, tuple(map(str, labels)))
            self.counters[key] = self.counters.get(key, 0.0) + value

    def _observe(self, name, labels, value) -> None:
        if self.attached:
            key = (name, tuple(map(str, labels)))
            counts, total, n = self.hists.get(
                key, ([0] * (len(DEFAULT_BUCKETS) + 1), 0.0, 0)
            )
            counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
            self.hists[key] = (counts, total + value, n + 1)

    def _on_submit(self, ev) -> None:
        self._inc("repro_tasks_submitted_total", (ev.task.codelet.name,))

    def _on_schedule(self, ev) -> None:
        name = ev.task.codelet.name
        self._inc("repro_schedule_decisions_total", (name,))
        if ev.attempt:
            self._inc("repro_schedule_retries_total", (name,))

    def _on_complete(self, ev) -> None:
        r = ev.record
        self._inc("repro_tasks_completed_total", (r.codelet, r.variant, r.arch))
        self._observe("repro_task_duration_seconds", (r.codelet, r.variant),
                      r.end_time - r.start_time)
        self._observe("repro_task_queue_wait_seconds", (r.codelet,),
                      r.start_time - r.submit_time)

    def _on_transfer(self, ev) -> None:
        r = ev.record
        direction = (DIRECTIONS[transfer_direction(r.src_node, r.dst_node)],)
        self._inc("repro_transfers_total", direction)
        self._inc("repro_transfer_bytes_total", direction, r.nbytes)
        self._observe("repro_transfer_seconds", direction, r.end_time - r.start_time)

    def _on_evict(self, ev) -> None:
        self._inc("repro_evictions_total", (ev.record.node,))

    def _on_fault(self, ev) -> None:
        self._inc("repro_faults_total", (ev.record.kind,))


def _folded(snapshot: dict) -> tuple[dict, dict]:
    """The snapshot's counters and histograms in the reference's form."""
    counters, hists = {}, {}
    for name, metric in snapshot.items():
        for s in metric["series"]:
            key = (name, tuple(s["labels"].values()))
            if metric["type"] == "counter":
                counters[key] = s["value"]
            elif metric["type"] == "histogram":
                cumulative = [n for _, n in s["buckets"]]
                counts = [b - a for a, b in zip([0] + cumulative, cumulative)]
                hists[key] = (counts, s["sum"], s["count"])
    return counters, hists


def _run(ops, scheduler: str, seed: int, reads: bool):
    gpu = replace(tesla_c2050(), memory_bytes=3 * MB)
    machine = make_machine("tiny-gpu", cpu=xeon_e5520_core(), n_cpu_cores=3, gpus=[gpu])
    rt = Runtime(
        machine,
        scheduler=scheduler,
        seed=0,
        noise_sigma=0.0,
        run_kernels=False,
        faults=FaultModel(kernel_fault_rate=0.05, transfer_fault_rate=0.05, seed=seed),
    )
    suite = MetricsSuite().attach(rt.engine)
    ref = _Reference(rt.engine.events)
    handles = [
        rt.register(np.zeros(MB // 4, dtype=np.float32), f"h{i}")
        for i in range(_N_HANDLES)
    ]
    for op, *args in ops:
        try:
            if op == "submit":
                k, h, n = args
                other = handles[(h + 1) % _N_HANDLES]
                for _ in range(n):
                    rt.submit(_CODELETS[k], [(handles[h], "rw"), (other, "r")])
            elif op == "wait":
                rt.wait_for_all()
        except UnrecoverableTaskError:
            pass
        if op == "read" and reads:
            suite.collect()
        elif op == "clear":
            suite.collect()
            rt.engine.trace.clear()
        elif op == "detach" and ref.attached:
            suite.detach()
            ref.attached = False
        elif op == "attach" and not ref.attached:
            suite.attach(rt.engine)
            ref.attached = True
    if not ref.attached:
        suite.attach(rt.engine)
        ref.attached = True
    try:
        rt.wait_for_all()
    except UnrecoverableTaskError:
        pass
    rt.shutdown()
    return suite.snapshot(), ref


@given(
    ops=_ops,
    scheduler=st.sampled_from(["eager", "dmda"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
# beta is first submitted while detached and counted only after alpha:
# the series order must not follow the trace's first-submit order
@example(
    ops=[("detach",), ("submit", 1, 0, 1), ("attach",), ("submit", 0, 0, 1),
         ("read",), ("submit", 1, 0, 1)],
    scheduler="eager",
    seed=0,
)
def test_catalogue_is_the_fold_of_the_attached_records(ops, scheduler, seed):
    snapshot, ref = _run(ops, scheduler, seed, reads=True)
    counters, hists = _folded(snapshot)
    assert counters == ref.counters
    assert hists == ref.hists
    unread, _ = _run(ops, scheduler, seed, reads=False)
    assert json.dumps(unread) == json.dumps(snapshot)
