"""Figure 3: smart-container copy elision.

The paper's worked example: four asynchronous component calls and one
vector operand on a 1-CPU + 1-GPU system, all calls executing on the
GPU.  With smart containers tracking copies, only 2 transfer operations
happen; treating each call independently (copying in and out every time,
as Kicherer et al. do) costs 7.

Also checks the inter-component-parallelism claim: the two read-only
calls (lines 10 and 12) are independent and may overlap, while the
read-after-write chain (lines 4 -> 8) serialises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.containers import Vector
from repro.experiments.runner import table
from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


@dataclass(frozen=True)
class Fig3Result:
    """Transfer counts for the two strategies."""

    smart_copies: int
    smart_h2d: int
    smart_d2h: int
    naive_copies: int
    readers_overlap: bool
    values_ok: bool


def _gpu_codelet(name: str, fn) -> Codelet:
    return Codelet(
        name,
        [ImplVariant(f"{name}_cuda", Arch.CUDA, fn, lambda ctx, dev: 1e-4)],
    )


def _make_codelets():
    def comp1(ctx, v):  # line 4: write-only
        v[:] = np.arange(len(v), dtype=v.dtype)

    def comp2(ctx, v):  # line 8: read-write
        v *= 2.0

    def comp3(ctx, v):  # lines 10/12: read-only
        float(v.sum())

    return (
        _gpu_codelet("comp1", comp1),
        _gpu_codelet("comp2", comp2),
        _gpu_codelet("comp3", comp3),
    )


def run_smart(n: int = 100_000, seed: int = 0):
    """The paper's scenario with smart containers (Figure 3)."""
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed)
    comp1, comp2, comp3 = _make_codelets()
    v0 = Vector.zeros(n, runtime=rt, name="v0")  # line 2
    rt.submit(comp1, [(v0.handle, "w")], name="comp1")  # line 4
    first = float(v0[1])  # line 6: read data on host
    rt.submit(comp2, [(v0.handle, "rw")], name="comp2")  # line 8
    t3 = rt.submit(comp3, [(v0.handle, "r")], name="comp3")  # line 10
    t4 = rt.submit(comp3, [(v0.handle, "r")], name="comp3b")  # line 12
    v0[2] = 11.0  # line 14: write data on host
    rt.wait_for_all()
    values_ok = first == 1.0 and float(v0[1]) == 2.0 and float(v0[2]) == 11.0
    # the two readers are independent: neither waits for the other
    overlap = t4.start_time < t3.end_time or t3.start_time < t4.end_time
    readers_independent = (
        t3.task_id not in [d.task_id for d in t4.dependents]
        and t4.task_id not in [d.task_id for d in t3.dependents]
    )
    trace = rt.trace
    rt.shutdown()
    return trace, values_ok, overlap and readers_independent


def run_naive(n: int = 100_000, seed: int = 0):
    """The same four calls with copy-in/copy-out on every call.

    This is the raw-C/C++-parameter policy of section IV-D: without
    containers the tool cannot reason about access patterns (pointer
    aliasing), so every call uploads its operand and "always copies data
    back to the main memory before returning" — even pure readers.  Only
    the first, write-only call skips the upload: 1 + 2 + 2 + 2 = 7.
    """
    rt = Runtime(platform_c2050(), scheduler="eager", seed=seed)
    comp1, comp2, comp3 = _make_codelets()
    data = np.zeros(n, dtype=np.float32)

    def call(codelet, mode):
        # fresh registration per call = no cross-call locality; without
        # access metadata everything but a pure write is treated as rw
        handle = rt.register(data, "raw")
        rt.submit(codelet, [(handle, mode)], sync=True, name=codelet.name)
        rt.unregister(handle)

    call(comp1, "w")
    _ = data[1]  # host read needs no extra copy: data was just flushed
    call(comp2, "rw")
    call(comp3, "rw")  # conservative: reader still copied back
    call(comp3, "rw")
    data[2] = 11.0
    rt.wait_for_all()
    trace = rt.trace
    rt.shutdown()
    return trace


def run(n: int = 100_000, seed: int = 0) -> Fig3Result:
    smart_trace, values_ok, overlap = run_smart(n, seed)
    naive_trace = run_naive(n, seed)
    return Fig3Result(
        smart_copies=smart_trace.n_transfers,
        smart_h2d=smart_trace.n_h2d,
        smart_d2h=smart_trace.n_d2h,
        naive_copies=naive_trace.n_transfers,
        readers_overlap=overlap,
        values_ok=values_ok,
    )


def format_result(result: Fig3Result) -> str:
    return table(
        "Figure 3: smart-container copy elision (4 calls, 1 vector, GPU)",
        ("Strategy", "Paper", "Measured"),
        [
            ("smart containers", "2 copies",
             f"{result.smart_copies} copies ({result.smart_h2d} h2d, "
             f"{result.smart_d2h} d2h)"),
            ("copy every call", "7 copies", f"{result.naive_copies} copies"),
        ],
        [f"independent reads overlap: {result.readers_overlap}; "
         f"values consistent: {result.values_ok}"],
    )
