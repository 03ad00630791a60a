"""What a completed task leaves behind: the retained-bytes gate.

Every task of a session stays in the execution trace and feeds the
regression model's samples until the session ends, so the bytes those
two keep per task bound how long a run fits in memory.  Integer and id
fields live in 4-byte typed arrays (nodes in 1-byte ones) that widen
only when a value outgrows them, and samples in flat float arrays; boxed
ints and small tuples per task would roughly double the figure.  The
codelet, variant, arch and worker columns hold one byte-wide code per
task, and a default task name is derived on read, not stored.
"""

import gc
import math
import tracemalloc

import numpy as np

from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

N_TASKS = 20_000
N_HANDLES = 256
#: retained bytes per completed task, ~15% over the measured ~166 B
#: (x86-64 Linux, CPython 3.11) with int and id columns at 4 bytes and
#: nodes at 1.  With every int and id column 8 bytes wide it measured
#: ~233 B, and earlier ~258 B; storing every name and one pointer per
#: coded field ~377 B, boxed ints and per-task tuples ~720 B
GATE_BYTES_PER_TASK = 190


def _stream(seed: int, n_tasks: int) -> list:
    """Seeded DAG stream: each task touches 1-3 of the shared handles
    with modes r/rw/w at 60/30/10 percent."""
    rng = np.random.default_rng(seed)
    n_ops = rng.integers(1, 4, n_tasks)
    modes = rng.choice(3, size=(n_tasks, 3), p=(0.6, 0.3, 0.1))
    tasks = []
    for i in range(n_tasks):
        picks = rng.choice(N_HANDLES, size=int(n_ops[i]), replace=False)
        tasks.append(
            tuple((int(h), ("r", "rw", "w")[modes[i, j]]) for j, h in enumerate(picks))
        )
    return tasks


def _run(tasks: list, seed: int) -> tuple[Runtime, int]:
    """Run ``tasks`` eagerly with kernels off; return the runtime and
    the traced bytes it gained between set-up and shutdown."""
    rt = Runtime(
        platform_c2050(),
        scheduler="eager",
        seed=seed,
        noise_sigma=0.0,
        submit_overhead_s=1e-7,
        run_kernels=False,
        check=False,
    )
    codelet = Codelet(
        "dag",
        [
            ImplVariant("dag_cpu", Arch.CPU, lambda ctx, *a: None, lambda c, d: 2e-5),
            ImplVariant("dag_cuda", Arch.CUDA, lambda ctx, *a: None, lambda c, d: 4e-6),
        ],
    )
    rng = np.random.default_rng(seed)
    sizes = np.exp(rng.uniform(math.log(256), math.log(65536), N_HANDLES))
    handles = [
        rt.register(np.zeros(int(s) // 4, dtype=np.float32), f"h{i}")
        for i, s in enumerate(sizes)
    ]
    base, _ = tracemalloc.get_traced_memory()
    submit = rt.submit
    for ops in tasks:
        submit(codelet, [(handles[h], m) for h, m in ops])
    rt.shutdown()
    after, _ = tracemalloc.get_traced_memory()
    return rt, after - base


def test_completed_tasks_retain_bounded_bytes():
    tasks = _stream(0, N_TASKS)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        _run(tasks[:200], 1)  # warm-up: lazy module state and memos
        rt, retained = _run(tasks, 0)
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert rt.trace.n_tasks == N_TASKS
    assert rt.trace.n_transfers > 0
    per_task = retained / N_TASKS
    assert per_task <= GATE_BYTES_PER_TASK, f"{per_task:.0f} B retained per task"
