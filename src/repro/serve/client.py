"""Client generators: tenant sessions producing component invocations.

Each tenant owns a *session* against the composition server.  A session
pins the tenant's workload (one of the :mod:`repro.apps` registry
components at a fixed problem size), pre-registers the read-only inputs
once (clients resend the same model/graph/wall on every call, so the
runtime's coherence layer may cache device copies across requests) and
registers one fresh output per request so requests of one tenant do not
serialize on write-write dependencies.  That output is write-only
(``"w"``, set by :meth:`_Session.make_request` for every workload): no
request reads its initial contents (sgemm's ``beta`` is 0), so the
runtime never uploads it and the kernel writes it on the device it runs
on.  With kernels off nothing ever writes that output, so it is a
read-only zero-stride placeholder: it carries the real buffer's shape,
dtype and ``nbytes`` (so footprints and traces are unchanged) without
allocating its payload.
For the same reason a kernels-off sgemm session registers placeholder
operands instead of drawing random matrices nobody reads.

Two load shapes, both with seeded determinism:

- **open loop** (:class:`OpenLoopClient`): requests arrive by a Poisson
  process at ``rate_hz``, independent of completions — the load shape
  that exposes queueing collapse and motivates admission control;
- **closed loop** (:class:`ClosedLoopClient`): ``concurrency`` logical
  users each issue the next request ``think_time_s`` after the previous
  one completes — load self-limits, the classic benchmark-client shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.composer.glue import lower_component
from repro.errors import PeppherError, UnrecoverableTaskError
from repro.runtime.codelet import Codelet
from repro.workloads import gemm_inputs, pathfinder_wall, random_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime
    from repro.runtime.task import Task


@dataclass(frozen=True)
class TenantSpec:
    """Configuration of one tenant of the composition service."""

    name: str
    #: workload key (see :data:`WORKLOADS`)
    workload: str = "sgemm"
    #: problem size forwarded to the workload builder
    size: int = 96
    #: weighted-fair-queueing share (only the ratio between tenants matters)
    weight: float = 1.0
    #: open-loop Poisson arrival rate; ``None`` selects the closed loop
    rate_hz: float | None = 200.0
    #: total requests the tenant offers over the run
    n_requests: int = 100
    #: closed-loop concurrent logical users
    concurrency: int = 1
    #: closed-loop think time between completion and the next request
    think_time_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise PeppherError("tenant name must be non-empty")
        if self.size < 1:
            raise PeppherError(f"tenant {self.name!r}: size must be >= 1")
        if self.workload not in WORKLOADS:
            raise PeppherError(
                f"tenant {self.name!r}: unknown workload {self.workload!r}; "
                f"known: {sorted(WORKLOADS)}"
            )
        if self.n_requests < 1:
            raise PeppherError(
                f"tenant {self.name!r}: n_requests must be >= 1"
            )
        if self.rate_hz is not None and self.rate_hz <= 0:
            raise PeppherError(f"tenant {self.name!r}: rate_hz must be > 0")
        if self.weight <= 0:
            raise PeppherError(f"tenant {self.name!r}: weight must be > 0")
        if self.concurrency < 1:
            raise PeppherError(
                f"tenant {self.name!r}: concurrency must be >= 1"
            )


@dataclass
class Request:
    """One component invocation traveling through the serving pipeline."""

    tenant: str
    req_id: int
    arrival_s: float
    codelet_name: str
    #: coalescing key: requests sharing it may be fused into one batch
    shape_key: tuple
    #: ``submit(rt, release=False)`` registers the request's private
    #: output, submits its task and returns it; called at dispatch time.
    #: An exhausted fault recovery does not raise: the request's outcome
    #: is read from its task, which failed exactly when it was left
    #: unplaced (``task.chosen_variant is None``).  With
    #: ``release=True`` the output is handed to ``rt.unregister_submit``
    #: once submitted, so it leaves device memory when the request
    #: completes.
    submit: Callable[..., "Task"]
    #: filled by the server
    delayed: bool = False


# ---------------------------------------------------------------------------
# workload sessions (shared read-only inputs, one output handle per request)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _placeholder(shape, dtype) -> np.ndarray:
    """A read-only stride-0 view of one zero with the real ``nbytes``,
    shared by every request of one ``(shape, dtype)``: nothing writes
    it, and each request still registers its own handle."""
    return np.broadcast_to(np.zeros((), dtype), shape)


def _output(rt: "Runtime", shape, dtype) -> np.ndarray:
    """A request's output buffer: real zeros when kernels run, otherwise
    a placeholder no kernel will write."""
    if rt.engine.run_kernels:
        return np.zeros(shape, dtype)
    return _placeholder(shape, dtype)


class _Session:
    """Base session: lazily registers shared inputs on first request.

    A subclass names its request shape (:attr:`shape_key`, whose first
    item names the requests) and :meth:`_invocation`, what one request
    passes to the codelet besides its private output.
    """

    def __init__(self, runtime: "Runtime", spec: TenantSpec) -> None:
        self.runtime = runtime
        self.spec = spec
        self.codelet = self._make_codelet()
        #: the shared operands, registered by the first request
        self.inputs = None

    def _make_codelet(self) -> Codelet:
        raise NotImplementedError

    def _register_inputs(self):
        raise NotImplementedError

    def _invocation(self) -> tuple:
        """``((output name, shape, dtype), shared operands, ctx, scalar
        args)`` of one request; the output is always write-only."""
        raise NotImplementedError

    def make_request(self, req_id: int, arrival_s: float) -> Request:
        tenant = self.spec.name
        shape_key = self.shape_key
        if self.inputs is None:
            self.inputs = self._register_inputs()

        def submit(rt: "Runtime", release: bool = False) -> "Task":
            (name, shape, dtype), shared, ctx, args = self._invocation()
            h = rt.register(_output(rt, shape, dtype), f"{tenant}:{name}{req_id}")
            task = rt.make_task(
                self.codelet,
                [*shared, (h, "w")],
                ctx={**ctx, "tenant": tenant},
                scalar_args=args,
                name=f"{tenant}/{shape_key[0]}#{req_id}",
            )
            try:
                rt.engine.submit(task)
            except UnrecoverableTaskError:
                # fault recovery ran out, for this task or (on a bulk
                # policy, in a window that flushed here) another one:
                # the task's own state tells which
                pass
            finally:
                if release:
                    rt.unregister_submit(h)
            return task

        return Request(
            tenant=tenant,
            req_id=req_id,
            arrival_s=arrival_s,
            codelet_name=self.codelet.name,
            shape_key=shape_key,
            submit=submit,
        )


class SgemmSession(_Session):
    """``C = A @ B`` at a fixed square size; A and B shared read-only."""

    def _make_codelet(self) -> Codelet:
        from repro.apps import sgemm

        return lower_component(sgemm.INTERFACE, sgemm.IMPLEMENTATIONS)

    def _register_inputs(self):
        s = self.spec.size
        rt = self.runtime
        if rt.engine.run_kernels:
            a, b, _ = gemm_inputs(s, s, s, seed=self.spec.seed)
        else:
            a = _placeholder((s, s), np.float32)
            b = _placeholder((s, s), np.float32)
        return (
            rt.register(a, f"{self.spec.name}:A"),
            rt.register(b, f"{self.spec.name}:B"),
        )

    @property
    def shape_key(self) -> tuple:
        return ("sgemm", self.spec.size)

    def _invocation(self) -> tuple:
        s = self.spec.size
        h_a, h_b = self.inputs
        return (
            ("C", (s, s), np.float32),
            [(h_a, "r"), (h_b, "r")],
            {"m": s, "n": s, "k": s},
            (s, s, s, 1.0, 0.0),
        )


class PathfinderSession(_Session):
    """Grid DP over a shared wall; fresh result row per request."""

    ROWS = 50

    def _make_codelet(self) -> Codelet:
        from repro.apps import pathfinder

        return lower_component(pathfinder.INTERFACE, pathfinder.IMPLEMENTATIONS)

    def _register_inputs(self):
        wall = pathfinder_wall(self.ROWS, self.spec.size, seed=self.spec.seed)
        return (self.runtime.register(wall, f"{self.spec.name}:wall"),)

    @property
    def shape_key(self) -> tuple:
        return ("pathfinder", self.ROWS, self.spec.size)

    def _invocation(self) -> tuple:
        cols = self.spec.size
        (h_wall,) = self.inputs
        return (
            ("res", cols, np.int32),
            [(h_wall, "r")],
            {"rows": self.ROWS, "cols": cols},
            (self.ROWS, cols),
        )


class BfsSession(_Session):
    """BFS over a shared random graph; fresh cost vector per request."""

    DEGREE = 8

    def _make_codelet(self) -> Codelet:
        from repro.apps import bfs

        return lower_component(bfs.INTERFACE, bfs.IMPLEMENTATIONS)

    def _register_inputs(self):
        nodes, edges = random_graph(
            self.spec.size, self.DEGREE, seed=self.spec.seed
        )
        rt = self.runtime
        return (
            rt.register(nodes, f"{self.spec.name}:nodes"),
            rt.register(edges, f"{self.spec.name}:edges"),
            len(edges),
        )

    @property
    def shape_key(self) -> tuple:
        return ("bfs", self.spec.size)

    def _invocation(self) -> tuple:
        n = self.spec.size
        h_nodes, h_edges, n_edges = self.inputs
        return (
            ("costs", n, np.int32),
            [(h_nodes, "r"), (h_edges, "r")],
            {"n_nodes": n, "n_edges": n_edges},
            (n, n_edges, 0),
        )


#: workload name -> session class (all reuse repro.apps registry kernels)
WORKLOADS: dict[str, type[_Session]] = {
    "sgemm": SgemmSession,
    "pathfinder": PathfinderSession,
    "bfs": BfsSession,
}


# ---------------------------------------------------------------------------
# load generators
# ---------------------------------------------------------------------------

class ArrivalSchedule:
    """A tenant's seeded request times, numbered from 0 in issue order.

    :meth:`initial` draws the first wave: every request of an open loop
    (exponential interarrivals at ``rate_hz``), or one per closed-loop
    user (with seeded jitter so users do not arrive in lockstep);
    :meth:`reissue` gives a finishing user's next request until all
    ``n_requests`` are issued, which an open loop is at once.  The
    serving clients and the cluster router both follow this one
    schedule.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.issued = 0
        salt = 0xC105ED if spec.rate_hz is None else 0xC11E
        self._rng = np.random.default_rng(spec.seed + salt)

    def initial(self) -> list[float]:
        spec, rng = self.spec, self._rng
        if spec.rate_hz is not None:
            gaps = rng.exponential(1.0 / spec.rate_hz, size=spec.n_requests)
            times = np.cumsum(gaps).tolist()
        else:
            n = min(spec.concurrency, spec.n_requests)
            times = [float(rng.exponential(1e-4)) for _ in range(n)]
        self.issued = len(times)
        return times

    def reissue(self, end_s: float) -> tuple[int, float] | None:
        """(id, time) of the request a user finishing at ``end_s``
        issues next, or None once every request is issued."""
        if self.issued >= self.spec.n_requests:
            return None
        self.issued += 1
        return self.issued - 1, end_s + self.spec.think_time_s


class _Client:
    """A tenant session driven by its :class:`ArrivalSchedule`."""

    def __init__(self, runtime: "Runtime", spec: TenantSpec) -> None:
        self.spec = spec
        self.session = WORKLOADS[spec.workload](runtime, spec)
        self.schedule = ArrivalSchedule(spec)

    def arrivals(self) -> list[Request]:
        """The first wave of requests, in arrival order."""
        make = self.session.make_request
        return [make(i, t) for i, t in enumerate(self.schedule.initial())]

    def on_complete(self, request: Request, end_s: float) -> Request | None:
        """The finishing user's next request, or None when spent."""
        nxt = self.schedule.reissue(end_s)
        return None if nxt is None else self.session.make_request(*nxt)


class OpenLoopClient(_Client):
    """Poisson arrivals at ``spec.rate_hz``, independent of completions."""

    def __init__(self, runtime: "Runtime", spec: TenantSpec) -> None:
        if spec.rate_hz is None:
            raise PeppherError(
                f"tenant {spec.name!r}: open-loop client needs rate_hz"
            )
        super().__init__(runtime, spec)


class ClosedLoopClient(_Client):
    """``concurrency`` users; each reissues ``think_time_s`` after completion."""


def make_client(runtime: "Runtime", spec: TenantSpec):
    """Open-loop when the spec carries a rate, closed-loop otherwise."""
    if spec.rate_hz is not None:
        return OpenLoopClient(runtime, spec)
    return ClosedLoopClient(runtime, spec)
