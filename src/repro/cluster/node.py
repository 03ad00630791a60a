"""One cluster node: a full composition runtime behind an RPC boundary.

Each node owns the whole single-machine stack from the earlier PRs —
its own machine description, engine, perf-model (optionally warmed from
a per-node :class:`~repro.tuning.store.PerfModelStore` directory),
device-level :class:`~repro.hw.faults.FaultModel` and
:class:`~repro.runtime.engine.RecoveryPolicy` — plus the serving-layer
building blocks the router drives remotely: an admission controller and
a coalescing batch queue.  The router never reaches into another node's
engine; everything crosses the (simulated) network as a dispatch or a
completion, which is what makes crashes and partitions meaningful.

Ground-truth fault state lives here (``crashed_at``, ``partition``,
``slowdown``): the *router* only ever learns about it through the
failure detector.  Dispatches that arrive after a node's crash instant
are blackholed without touching the engine.  The engine cannot yet halt
at that instant, so tasks it had already been handed may still start
after it, which ``cluster.dead-node-execution`` flags after the run
(the crashed-node item in ROADMAP.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.runtime import Runtime
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.batching import BatchPolicy, Coalescer, submit_batch
from repro.serve.client import WORKLOADS, Request, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.faults import FaultModel
    from repro.hw.description import Machine
    from repro.runtime.engine import RecoveryPolicy
    from repro.runtime.task import Task
    from repro.tuning.store import PerfModelStore


class _ScaledNoise:
    """Mutable straggler wrapper around a node's noise model.

    The engine computes task timelines eagerly at dispatch, so a
    slowdown cannot rewrite history — but scaling every perturbation
    from the slowdown instant on makes all *later* dispatches slower,
    which is how a straggling node degrades in a discrete-event world.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.scale = 1.0

    def perturb(self, duration: float) -> float:
        return self._inner.perturb(duration) * self.scale


class ClusterNode:
    """One simulated serving node addressed by the cluster router."""

    def __init__(
        self,
        node_id: int,
        machine: "Machine",
        *,
        scheduler: str = "dmda",
        seed: int = 0,
        noise_sigma: float = 0.0,
        run_kernels: bool = False,
        faults: "FaultModel | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        store: "PerfModelStore | None" = None,
        admission: AdmissionPolicy | None = None,
        batching: BatchPolicy | None = None,
        max_inflight: int = 4,
        dispatch_overhead_s: float = 5e-6,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.node_id = node_id
        self.runtime = Runtime(
            machine,
            scheduler=scheduler,
            seed=seed,
            noise_sigma=noise_sigma,
            run_kernels=run_kernels,
            faults=faults,
            recovery=recovery,
            store=store,
            check=False,
        )
        self.engine = self.runtime.engine
        # install the straggler hook around whatever noise the engine built
        self.engine.noise = _ScaledNoise(self.engine.noise)
        self.admission = AdmissionController(admission)
        self.coalescer = Coalescer(batching)
        self.max_inflight = int(max_inflight)
        self.dispatch_overhead_s = float(dispatch_overhead_s)
        #: router-visible occupied dispatch slots (blackholed dispatches
        #: hold a slot until the failure detector resolves them)
        self.inflight = 0
        #: lazily created per-tenant sessions (shared read-only inputs)
        self._sessions: dict[str, object] = {}
        # -- ground-truth fault state (the router must not read these;
        #    it learns through heartbeats) --------------------------------
        self.crashed_at: float | None = None
        self.partition: tuple[float, float] | None = None
        self.slowdown: tuple[float, float] | None = None
        # -- membership state --------------------------------------------
        self.draining = False
        self.removed = False
        self._closed = False

    # -- ground truth --------------------------------------------------------

    def alive(self, t: float) -> bool:
        return self.crashed_at is None or t < self.crashed_at

    def partitioned(self, t: float) -> bool:
        if self.partition is None:
            return False
        t0, t1 = self.partition
        return t0 <= t < t1

    def reachable(self, t: float) -> bool:
        return self.alive(t) and not self.partitioned(t)

    def apply_slowdown(self, t: float, factor: float) -> None:
        self.slowdown = (t, factor)
        self.engine.noise.scale = factor

    # -- request materialization --------------------------------------------

    def make_request(
        self, spec: TenantSpec, req_id: int, arrival_s: float
    ) -> Request:
        """Materialize the tenant's invocation against *this* node's
        runtime (each node holds its own copy of the shared inputs, so
        a failed-over request re-binds to the target node's session)."""
        session = self._sessions.get(spec.name)
        if session is None:
            session = WORKLOADS[spec.workload](self.runtime, spec)
            self._sessions[spec.name] = session
        return session.make_request(req_id, arrival_s)

    # -- execution -----------------------------------------------------------

    def submit_batch(
        self, batch: list[Request], t: float
    ) -> "list[tuple[Request, Task]]":
        """Execute a coalesced batch on the node's engine at global time
        ``t``, as the single-machine server does (see
        :func:`~repro.serve.batching.submit_batch`): each request with
        its task, unplaced (``chosen_variant is None``) when the node's
        device-level fault recovery ran out."""
        return [
            (req, task)
            for req, task, _ in submit_batch(
                self.runtime, batch, t, self.dispatch_overhead_s
            )
        ]

    def backlog_seconds(self, t: float) -> float:
        return self.engine.backlog_seconds(t)

    def queue_depth(self) -> int:
        return self.inflight + len(self.coalescer)

    def close(self) -> None:
        """Shut the node's runtime down (persists its perf-model store)."""
        if not self._closed:
            self._closed = True
            self.runtime.shutdown()
