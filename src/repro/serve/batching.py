"""Request coalescing: fuse same-codelet/same-shape invocations.

The paper's Figure 7 worries about per-task runtime overhead; at serving
scale that overhead is paid once per *request* unless the front-end
coalesces.  The :class:`Coalescer` buckets queued requests by their
``shape_key`` (codelet plus problem shape); a dispatch drains up to
``max_batch`` requests of one bucket — possibly from different tenants —
as one batched submission, so the server charges its per-dispatch
overhead once per batch instead of once per request.

Bucket selection is the throughput/fairness knob.  ``take_greedy``
drains the deepest bucket first — maximal fusion, but a tenant keeping
one bucket full can starve minority shapes indefinitely.  ``take_for``
drains the bucket holding a chosen tenant's oldest request, which is how
the weighted-fair dispatch path batches without starving (the fair
policy picks the tenant, the coalescer still fuses other tenants'
compatible requests into the same batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import UnrecoverableTaskError
from repro.serve.client import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime
    from repro.runtime.task import Task


@dataclass(frozen=True)
class BatchPolicy:
    """How aggressively the coalescer fuses compatible requests."""

    #: largest number of requests fused into one dispatch
    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")


class Coalescer:
    """FIFO-per-bucket queue of admitted, not-yet-dispatched requests."""

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()
        #: shape_key -> FIFO of requests (insertion order preserved)
        self._buckets: dict[tuple, list[Request]] = {}
        #: queued requests over every bucket (drained buckets are deleted)
        self._len = 0
        #: dispatch statistics
        self.n_batches = 0
        self.n_fused = 0  # requests that rode along in a batch of > 1

    def __len__(self) -> int:
        return self._len

    @property
    def empty(self) -> bool:
        return not self._buckets

    def push(self, request: Request) -> None:
        self._buckets.setdefault(request.shape_key, []).append(request)
        self._len += 1

    def pending_for(self, tenant: str) -> int:
        return sum(
            1
            for bucket in self._buckets.values()
            for r in bucket
            if r.tenant == tenant
        )

    def tenants_waiting(self) -> set[str]:
        return {
            r.tenant for bucket in self._buckets.values() for r in bucket
        }

    def oldest_for(self, tenant: str) -> Request | None:
        """The tenant's earliest-arrived queued request."""
        best: Request | None = None
        for bucket in self._buckets.values():
            for r in bucket:
                if r.tenant == tenant and (
                    best is None or r.arrival_s < best.arrival_s
                ):
                    best = r
        return best

    def iter_requests(self):
        for bucket in self._buckets.values():
            yield from bucket

    # -- batch extraction ---------------------------------------------------

    def _drain(self, key: tuple) -> list[Request]:
        bucket = self._buckets[key]
        take, rest = bucket[: self.policy.max_batch], bucket[self.policy.max_batch:]
        if rest:
            self._buckets[key] = rest
        else:
            del self._buckets[key]
        self._len -= len(take)
        self.n_batches += 1
        if len(take) > 1:
            self.n_fused += len(take) - 1
        return take

    def take_greedy(self) -> list[Request]:
        """Drain the deepest bucket (ties: oldest head request first).

        Throughput-optimal fusion; under sustained load from one shape
        it starves minority shapes — the behaviour the ``fair`` policy
        exists to prevent.
        """
        if self.empty:
            return []
        key = max(
            self._buckets,
            key=lambda k: (len(self._buckets[k]), -self._buckets[k][0].arrival_s),
        )
        return self._drain(key)

    def take_for(self, tenant: str) -> list[Request]:
        """Drain the bucket holding ``tenant``'s oldest request.

        The chosen tenant's request leads the batch; compatible requests
        of *other* tenants in the same bucket still fuse in behind it
        (cross-tenant fusion keeps the overhead amortization).
        """
        head = self.oldest_for(tenant)
        if head is None:
            return []
        bucket = self._buckets[head.shape_key]
        # lead with the chosen request, preserve FIFO for the rest
        bucket.remove(head)
        bucket.insert(0, head)
        return self._drain(head.shape_key)

    @property
    def mean_batch_size(self) -> float:
        dispatched = self.n_fused + self.n_batches
        return dispatched / self.n_batches if self.n_batches else 0.0


def submit_batch(
    runtime: "Runtime", batch: Sequence[Request], t: float, overhead_s: float
) -> "Iterator[tuple[Request, Task, float]]":
    """Submit one coalesced batch at time ``t``; yield each request with
    its task and dispatch time.

    One dispatcher: the per-batch overhead serializes on the host clock
    after ``t``, which is exactly what coalescing amortizes.  An eager
    policy places each task at submit, so each request is yielded right
    after its submit, with its own dispatch time: the caller's service
    charges land before the next submit.  A bulk policy defers every
    task, and one :meth:`~repro.runtime.engine.Engine.flush_window`
    plans and commits the batch as one DAG window, so the planner sees
    all cross-tenant work at once; its requests are yielded after the
    flush, all dispatched at the batch start.  A request failed exactly
    when its task was left unplaced (``task.chosen_variant is None``).
    Each request's private output is released as it completes.
    """
    engine = runtime.engine
    clock = engine.clock
    clock.advance_to(t)
    clock.advance(overhead_s)
    if not getattr(engine.scheduler, "is_bulk", False):
        for req in batch:
            dispatch_time = clock.now
            yield req, req.submit(runtime, release=True), dispatch_time
        return
    batch_start = clock.now
    tasks = [req.submit(runtime, release=True) for req in batch]
    try:
        engine.flush_window()
    except UnrecoverableTaskError:
        # the flush commits every plannable task before re-raising the
        # first recovery failure; each request reads its own task
        pass
    for req, task in zip(batch, tasks):
        yield req, task, batch_start
