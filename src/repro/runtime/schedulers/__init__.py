"""Scheduling policies for the task runtime.

``eager`` (greedy first-free), ``random`` (speed-weighted random), ``ws``
(queue-length balancing), ``dm`` (performance-model driven), ``dmda``
(performance-model + data-transfer aware — the default, and the policy
the paper's evaluation relies on), ``fair`` (per-tenant weighted fair
serving; placement delegates to an inner policy) and ``lookahead``
(bulk window planning with container-aware fusion; see
:mod:`repro.composer.lookahead` and ``docs/PLANNER.md``).
"""

from __future__ import annotations

from repro.runtime.schedulers.base import Decision, EngineView, Scheduler, enumerate_candidates
from repro.runtime.schedulers.bulk import BulkScheduler
from repro.runtime.schedulers.dmda import DmdaScheduler, DmScheduler
from repro.runtime.schedulers.eager import EagerScheduler
from repro.runtime.schedulers.fair import FairShareScheduler
from repro.runtime.schedulers.random_sched import RandomWeightedScheduler
from repro.runtime.schedulers.ws import WorkStealingScheduler

_POLICIES: dict[str, type[Scheduler]] = {
    EagerScheduler.name: EagerScheduler,
    RandomWeightedScheduler.name: RandomWeightedScheduler,
    WorkStealingScheduler.name: WorkStealingScheduler,
    DmScheduler.name: DmScheduler,
    DmdaScheduler.name: DmdaScheduler,
    FairShareScheduler.name: FairShareScheduler,
}


#: policies resolved on first use, because their classes live outside
#: the runtime.  The lookahead planner lives in :mod:`repro.composer`
#: (whose package import pulls the components stack, which itself
#: imports this runtime package), so registering it eagerly here would
#: be circular.  The decision-replay policy lives in :mod:`repro.check`,
#: which a runtime that never replays should not load.  By the time anyone
#: *instantiates* a policy, the runtime package is fully initialized and
#: the import is safe.
_DEFERRED: dict[str, tuple[str, str]] = {
    "lookahead": ("repro.composer.lookahead", "LookaheadScheduler"),
    "replay": ("repro.check.replay", "ReplayScheduler"),
}


def _resolve_deferred(name: str) -> type[Scheduler]:
    from importlib import import_module

    module, attr = _DEFERRED[name]
    cls: type[Scheduler] = getattr(import_module(module), attr)
    _POLICIES[cls.name] = cls
    del _DEFERRED[name]
    return cls


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a policy by its short name."""
    cls = _POLICIES.get(name)
    if cls is None:
        if name in _DEFERRED:
            cls = _resolve_deferred(name)
        else:
            raise KeyError(
                f"unknown scheduling policy {name!r}; known: {policy_names()}"
            )
    return cls(**kwargs)


def policy_names() -> list[str]:
    return sorted({*_POLICIES, *_DEFERRED})


__all__ = [
    "BulkScheduler",
    "Decision",
    "DmScheduler",
    "DmdaScheduler",
    "EagerScheduler",
    "EngineView",
    "FairShareScheduler",
    "RandomWeightedScheduler",
    "Scheduler",
    "WorkStealingScheduler",
    "enumerate_candidates",
    "make_scheduler",
    "policy_names",
]
