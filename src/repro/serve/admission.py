"""Admission control: bounded queues, backpressure and load shedding.

An open-loop tenant can offer load beyond machine capacity indefinitely;
without admission control the dispatch queue, and with it every
admitted request's waiting time, grows without bound (queueing collapse).
The controller bounds two quantities at arrival time:

- **queue depth** — requests admitted but not yet finished (dispatch
  queue plus the engine's in-flight tasks, counted by the controller
  as requests are admitted and finish), optionally also per tenant so
  one flooding tenant exhausts only its own quota;
- **predicted backlog seconds** — the committed work ahead of the
  busiest worker (``backlog_seconds``) plus a
  :class:`~repro.runtime.perfmodel.PerfModel` estimate of the queued,
  not-yet-dispatched requests.  This is the performance-aware half: the
  same learned model that drives ``dmda`` placement prices the queue.

Over-threshold arrivals are **shed** (rejected immediately — the client
sees a fast failure) or **delayed** (held in a backpressure buffer and
re-examined when load drains; a bounded patience turns stale delayed
requests into sheds).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AdmissionOutcome(Enum):
    ADMIT = "admit"
    SHED = "shed"
    DELAY = "delay"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Thresholds and the over-load reaction.

    ``None`` thresholds are unlimited; the default policy admits
    everything (the unbounded baseline the experiments compare against).
    """

    #: total admitted-but-unfinished requests tolerated
    max_queue_depth: int | None = None
    #: admitted-but-unfinished requests tolerated per tenant
    max_queue_per_tenant: int | None = None
    #: predicted backlog (seconds of work) tolerated at arrival
    max_backlog_s: float | None = None
    #: "shed" rejects over-threshold arrivals; "delay" buffers them
    on_overload: str = "shed"
    #: delay mode: buffered requests older than this are shed
    max_delay_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.on_overload not in ("shed", "delay"):
            raise ValueError(
                f"on_overload must be 'shed' or 'delay', got {self.on_overload!r}"
            )
        for name in ("max_queue_depth", "max_queue_per_tenant"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        if self.max_backlog_s is not None and self.max_backlog_s <= 0:
            raise ValueError("max_backlog_s must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")

    @property
    def bounded(self) -> bool:
        return (
            self.max_queue_depth is not None
            or self.max_queue_per_tenant is not None
            or self.max_backlog_s is not None
        )


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` against live engine state."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        #: admitted-but-unfinished request count, total and per tenant
        self._depth = 0
        self._tenant_depth: dict[str, int] = {}
        self.n_admitted = 0
        self.n_shed = 0
        self.n_delayed = 0

    # -- bookkeeping (the server reports request lifecycle) -----------------

    def note_admitted(self, tenant: str) -> None:
        self.n_admitted += 1
        self._depth += 1
        self._tenant_depth[tenant] = self._tenant_depth.get(tenant, 0) + 1

    def note_finished(self, tenant: str) -> None:
        self._depth -= 1
        self._tenant_depth[tenant] -= 1

    def note_shed(self) -> None:
        self.n_shed += 1

    def note_delayed(self) -> None:
        """Count a request's *first* deferral (retries do not re-count)."""
        self.n_delayed += 1

    def queue_depth(self, tenant: str | None = None) -> int:
        if tenant is None:
            return self._depth
        return self._tenant_depth.get(tenant, 0)

    # -- the decision -------------------------------------------------------

    def decide(
        self,
        tenant: str,
        now: float,
        arrival_s: float,
        predicted_backlog_s: float,
    ) -> AdmissionOutcome:
        """Admission decision for one arrival at virtual time ``now``.

        ``predicted_backlog_s`` is the server-computed estimate (engine
        committed backlog + perfmodel-priced pending queue).  In delay
        mode a request that has already waited past ``max_delay_s`` is
        shed instead of re-buffered.
        """
        p = self.policy
        over = False
        if p.max_queue_depth is not None and self._depth >= p.max_queue_depth:
            over = True
        if (
            p.max_queue_per_tenant is not None
            and self.queue_depth(tenant) >= p.max_queue_per_tenant
        ):
            over = True
        if p.max_backlog_s is not None and predicted_backlog_s > p.max_backlog_s:
            over = True
        if not over:
            return AdmissionOutcome.ADMIT
        if p.on_overload == "delay" and (now - arrival_s) < p.max_delay_s:
            return AdmissionOutcome.DELAY
        return AdmissionOutcome.SHED
