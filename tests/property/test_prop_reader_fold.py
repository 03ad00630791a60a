"""Property: implicit dependencies follow StarPU's access-mode rule,
however completed readers are kept.

A handle keeps the ids of its readers since the last write and only the
pending ones as objects.  Whatever the completion order (eager, dmda,
or lookahead windows of 2-8 tasks, over tasks of random cost), each
task's ``dep_ids`` must equal a pure-Python model of the rule — a task
waits for the handle's last writer, and a writer also for every reader
since, in first-seen order, each once — and no task may start before
its latest dependency ends.  Host accesses (``acquire``) and
partitioning restart or copy the ordering state as the model does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.presets import platform_c2050
from repro.runtime import Arch, Codelet, ImplVariant, Runtime

_OP = st.tuples(st.integers(0, 3), st.sampled_from(["r", "rw", "w"]))
_STEP = st.one_of(
    st.tuples(
        st.just("submit"),
        st.lists(_OP, min_size=1, max_size=3),
        st.floats(min_value=1e-6, max_value=5e-5),
    ),
    st.tuples(st.just("acquire"), st.integers(0, 3), st.sampled_from(["r", "rw"])),
    st.tuples(st.just("partition"), st.integers(0, 3)),
    st.tuples(st.just("unpartition"), st.integers(0, 3)),
)
_SCHEDULER = st.one_of(
    st.sampled_from([("eager", 0), ("dmda", 0)]),
    st.tuples(st.just("lookahead"), st.integers(2, 8)),
)


def _codelet() -> Codelet:
    def noop(ctx, *arrays):
        return None

    return Codelet(
        "p",
        [
            ImplVariant("p_cpu", Arch.CPU, noop, lambda ctx, dev: ctx["c"]),
            ImplVariant("p_cuda", Arch.CUDA, noop, lambda ctx, dev: ctx["c"] / 3),
        ],
    )


class _Model:
    """StarPU's rule over task ids, one ordering state per handle."""

    def __init__(self):
        self.state = {}  # handle -> (last writer id or None, reader ids)

    def get(self, h):
        return self.state.setdefault(h, (None, []))

    def submit(self, tid, ops):
        deps = []
        for h, mode in ops:
            lw, readers = self.get(h)
            for dep in ([lw] if lw is not None else []) + (
                readers if mode != "r" else []
            ):
                if dep not in deps:
                    deps.append(dep)
        for h, mode in ops:
            lw, readers = self.get(h)
            self.state[h] = (tid, []) if mode != "r" else (lw, readers + [tid])
        return tuple(deps)

    def reset(self, h):
        self.state[h] = (None, [])

    def inherit(self, child, parent):
        lw, readers = self.get(parent)
        self.state[child] = (lw, list(readers))


@given(
    n_handles=st.integers(1, 4),
    steps=st.lists(_STEP, min_size=1, max_size=30),
    scheduler=_SCHEDULER,
)
@settings(max_examples=60, deadline=None)
def test_dep_ids_follow_the_access_mode_rule(n_handles, steps, scheduler):
    policy, window = scheduler
    rt = Runtime(
        platform_c2050(),
        scheduler=policy,
        scheduler_options={"window_size": window} if window else None,
        noise_sigma=0.0,
        run_kernels=False,
    )
    cl = _codelet()
    handles = [
        rt.register(np.zeros(64, dtype=np.float32), f"h{i}")
        for i in range(n_handles)
    ]
    model = _Model()
    tasks, expected = [], {}

    def target(i):
        h = handles[i % n_handles]
        if h.children:
            return h.children[len(tasks) % len(h.children)]
        return h

    for step in steps:
        kind = step[0]
        if kind == "submit":
            ops = [(target(i), mode) for i, mode in step[1]]
            task = rt.submit(cl, ops, ctx={"c": step[2]})
            expected[task.task_id] = model.submit(task.task_id, ops)
            tasks.append(task)
        elif kind == "acquire":
            h = target(step[1])
            rt.acquire(h, step[2])
            if step[2] == "rw":
                model.reset(h)
        elif kind == "partition":
            h = handles[step[1] % n_handles]
            if not h.children:
                for child in rt.partition_equal(h, 2):
                    model.inherit(child, h)
        else:
            h = handles[step[1] % n_handles]
            if h.children:
                rt.unpartition(h)
                model.reset(h)
    rt.wait_for_all()

    by_id = {t.task_id: t for t in tasks}
    deps_in_trace = dict(zip(rt.trace.columns("task_id"), rt.trace.columns("deps")))
    for task in tasks:
        assert task.dep_ids == expected[task.task_id]
        assert deps_in_trace[task.task_id] == task.dep_ids
        for dep in task.dep_ids:
            assert task.start_time >= by_id[dep].end_time
    # every reader completed: no handle keeps a task per reader, nor
    # does a partition child, which copied its parent's readers
    for h in handles:
        for x in (h, *h.children):
            assert not x.pending_readers
    rt.shutdown()
