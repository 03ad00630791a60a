"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(the table :data:`LAYERS`) by patching them on their classes and
modules.  Nothing under ``src/`` knows about it.  Install the tracer
before the workload builds the objects it times: a bound method cached
on an object built earlier keeps calling the unwrapped function, and the
hot-layer gate in ``run.py`` then fails because the layer records no
calls.

A span is ``(id, parent, root, layer, name, start_ns, end_ns)``; every
span under one outermost call shares that root span's id.  A layer's
self time is the duration of its spans minus the time their child spans
cover.  Spans stay in memory while the rep runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

#: wrapped public entry points per layer: "module:Class.method" or
#: "module:function".  Generated entry-wrappers (layer "stubs") are
#: wrapped as each composed package is imported.
LAYERS: dict[str, tuple[str, ...]] = {
    "composer": (
        "repro.apps.mains:compose_app",
        "repro.composer.application:ComposedApplication.import_generated",
    ),
    "stubs": (),
    "containers": (
        "repro.containers.vector:Vector.__init__",
        "repro.containers.matrix:Matrix.__init__",
        "repro.containers.scalar:Scalar.__init__",
        "repro.containers.base:SmartContainer.to_numpy",
    ),
    "runtime": tuple(
        f"repro.runtime.runtime:Runtime.{m}"
        for m in ("__init__", "submit", "wait_for_all", "acquire", "shutdown")
    ),
    "engine": tuple(
        f"repro.runtime.engine:Engine.{m}"
        for m in ("submit", "wait_for_all", "acquire", "flush_window")
    ),
    "sched.eager": ("repro.runtime.schedulers.eager:EagerScheduler.choose",),
    "sched.dmda": ("repro.runtime.schedulers.dmda:DmdaScheduler.choose",),
    "sched.fair": ("repro.runtime.schedulers.fair:FairShareScheduler.choose",),
    "lookahead": ("repro.composer.lookahead:LookaheadScheduler.plan_window",),
    "perfmodel": tuple(
        f"repro.runtime.perfmodel:PerfModel.{m}" for m in ("record", "predict", "calibrated")
    ),
    "data": tuple(
        f"repro.runtime.data:DataHandle.{m}"
        for m in (
            "dependencies_for",
            "record_access",
            "pick_source",
            "mark_shared",
            "mark_modified",
        )
    ),
    "trace": (
        "repro.runtime.stats:ExecutionTrace.add_task",
        "repro.runtime.stats:ExecutionTrace.add_transfer",
    ),
    "hw": ("repro.hw.devices:DeviceSpec.roofline_time",),
    "serve.admission": ("repro.serve.admission:AdmissionController.decide",),
    "serve.coalescer": tuple(
        f"repro.serve.batching:Coalescer.{m}" for m in ("push", "take_greedy", "take_for")
    ),
    "serve.wfq": (
        "repro.serve.fairness:WeightedFairQueue.pick",
        "repro.serve.fairness:WeightedFairQueue.charge",
    ),
    "serve.server": tuple(
        f"repro.serve.server:CompositionServer.{m}" for m in ("__init__", "run", "shutdown")
    ),
    "cluster.router": tuple(
        f"repro.cluster.router:Cluster.{m}" for m in ("__init__", "run", "shutdown")
    ),
    "cluster.ring": ("repro.cluster.ring:HashRing.preference",),
    "cluster.detector": tuple(
        f"repro.cluster.detector:PhiAccrualDetector.{m}" for m in ("heartbeat", "phi", "state")
    ),
    "cluster.node": ("repro.cluster.node:ClusterNode.submit_batch",),
}

#: entry points whose non-None results count as hits (predict_hit_ratio)
COUNT_HITS = frozenset({"repro.runtime.perfmodel:PerfModel.predict"})

_FIELDS = ("id", "parent", "root", "layer", "name", "start_ns", "end_ns")


class Tracer:
    """Records spans around every entry point in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.names: list[str] = []
        self.active = False
        #: (owner, attribute, original value) for uninstall, in patch order
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Drop the recorded spans (the wrappers stay installed)."""
        self.columns = {f: array("q") for f in _FIELDS}
        self.hits: dict[int, int] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def spans(self) -> list[tuple[int, ...]]:
        return list(zip(*(self.columns[f] for f in _FIELDS)))

    def _wrap(self, fn, layer: str, name: str, count_hits: bool = False):
        tracer = self
        layer_i = self.layers.index(layer)
        name_i = len(self.names)
        self.names.append(name)
        perf_ns = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else sid
            stack.append(sid)
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                stack.pop()
                c = tracer.columns
                c["id"].append(sid)
                c["parent"].append(parent)
                c["root"].append(root)
                c["layer"].append(layer_i)
                c["name"].append(name_i)
                c["start_ns"].append(t0)
                c["end_ns"].append(t1)
            if count_hits and result is not None:
                tracer.hits[name_i] = tracer.hits.get(name_i, 0) + 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        traced._traced = True
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                self._patch(target, layer)
        # packages composed before install: later ones are wrapped as
        # import_generated loads them
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("peppher_app_") and modname.endswith(".peppher"):
                self.wrap_stubs(mod)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target: str, layer: str) -> None:
        modname, _, qual = target.partition(":")
        module = importlib.import_module(modname)
        count_hits = target in COUNT_HITS
        if "." not in qual:
            original = getattr(module, qual)
            wrapped = self._wrap(original, layer, qual, count_hits)
            # every repro module that imported the function by name holds
            # its own reference
            for name, mod in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if getattr(mod, qual, None) is original:
                    self._patches.append((mod, qual, original))
                    setattr(mod, qual, wrapped)
            return
        clsname, attr = qual.split(".")
        cls = getattr(module, clsname)
        original = cls.__dict__[attr]
        fn = original
        if (cls.__name__, attr) == ("ComposedApplication", "import_generated"):
            fn = self._stub_hook(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(fn, layer, qual, count_hits))

    def _stub_hook(self, import_generated):
        """``import_generated`` that wraps the package's entry-wrappers."""
        tracer = self

        def hooked(app):
            package = import_generated(app)
            tracer.wrap_stubs(sys.modules[f"{app.package_name}.peppher"])
            return package

        return hooked

    def wrap_stubs(self, peppher) -> None:
        """Wrap the generated entry-wrappers of one ``peppher`` module."""
        for name in peppher.CODELETS:
            fn = getattr(peppher, name)
            if getattr(fn, "_traced", False):
                continue
            self._patches.append((peppher, name, fn))
            setattr(peppher, name, self._wrap(fn, "stubs", name))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def layer_totals(spans, n_layers: int) -> tuple[list[int], list[int]]:
    """Per-layer (calls, self ns) from ``(id, parent, root, layer, name,
    start_ns, end_ns)`` spans: a span's self time is its duration minus
    the durations of its direct children."""
    child_ns: dict[int, int] = {}
    for _sid, parent, _root, _layer, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    calls = [0] * n_layers
    self_ns = [0] * n_layers
    for sid, _parent, _root, layer, _name, start, end in spans:
        calls[layer] += 1
        self_ns[layer] += (end - start) - child_ns.get(sid, 0)
    return calls, self_ns


def root_ns(spans) -> int:
    """Host time covered by outermost spans."""
    return sum(end - start for _s, parent, _r, _l, _n, start, end in spans if parent < 0)
