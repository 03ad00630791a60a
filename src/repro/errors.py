"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`PeppherError`,
so callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class PeppherError(Exception):
    """Base class for all errors raised by this package."""


class DescriptorError(PeppherError):
    """A descriptor (interface/implementation/platform/main) is malformed."""


class RepositoryError(PeppherError):
    """Lookup in a component repository failed."""


class CompositionError(PeppherError):
    """The composition tool could not compose the application."""


class ExpansionError(CompositionError):
    """Generic component expansion failed (unbound or mismatched type args)."""


class CodegenError(CompositionError):
    """Stub / header / makefile generation failed."""


class RuntimeSystemError(PeppherError):
    """The task runtime was used incorrectly or reached an invalid state."""


class DataConsistencyError(RuntimeSystemError):
    """A coherence invariant on a data handle was violated."""


class SchedulingError(RuntimeSystemError):
    """No worker can execute a task (e.g. no variant for any device)."""


class KernelExecutionError(RuntimeSystemError):
    """A component implementation raised while executing its kernel."""


class HardwareFault(PeppherError):
    """An injected hardware fault (see :mod:`repro.hw.faults`).

    Instances carry the virtual ``time`` at which the fault surfaced so
    the engine's recovery layer can charge the lost time and schedule
    the retry after it.
    """

    def __init__(self, message: str, time: float = 0.0) -> None:
        super().__init__(message)
        self.time = float(time)


class TransientKernelFault(HardwareFault):
    """A kernel execution attempt failed transiently (ECC error, launch
    failure, ...); retrying — possibly on another variant/worker — may
    succeed."""


class TransferFault(HardwareFault):
    """A data transfer was corrupted or aborted and its retransmissions
    were exhausted."""


class DeviceLostError(HardwareFault):
    """A device dropped off the bus permanently; its workers are dead
    and its memory content is gone."""


class UnrecoverableTaskError(RuntimeSystemError):
    """A task kept faulting after exhausting the recovery policy's
    retry budget.

    ``task_id`` and ``task_name`` name the task, ``attempts`` counts its
    failed execution attempts (None when raised without them).
    """

    def __init__(
        self,
        message: str,
        task_id: int | None = None,
        task_name: str | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.task_name = task_name
        self.attempts = attempts


class ExecBackendError(RuntimeSystemError):
    """An execution backend (see :mod:`repro.exec`) was misused or
    failed structurally (pool broken, backend closed, ...)."""


class VariantNotPicklableError(ExecBackendError):
    """A codelet variant's kernel function cannot be shipped to a
    process pool: it is not importable/picklable (e.g. a lambda or a
    closure).  Raised at registration/submission time — naming the
    codelet and variant — instead of surfacing as an opaque
    ``PicklingError`` mid-run."""

    def __init__(self, codelet: str, variant: str, reason: str) -> None:
        super().__init__(
            f"codelet {codelet!r}, variant {variant!r}: kernel is not "
            f"usable with a process pool ({reason}); define the kernel "
            "as a module-level function so worker processes can import it"
        )
        self.codelet = codelet
        self.variant = variant
        self.reason = reason


class StaleModelError(RuntimeSystemError):
    """A persisted performance model does not match the current machine
    description or model-format version; it must be recalibrated, never
    silently reused (see :mod:`repro.tuning.store`)."""


class InvariantViolation(PeppherError):
    """A finished execution trace breaks a physical or causal invariant
    (see :mod:`repro.check.invariants`).

    Instances carry the name of the violated ``rule`` and the ids of the
    trace events involved (task ids, handle ids, transfer indices, ...)
    so a violation pinpoints the exact records to look at.
    """

    def __init__(
        self,
        rule: str,
        detail: str,
        events: tuple = (),
    ) -> None:
        ev = f" [events: {', '.join(map(str, events))}]" if events else ""
        super().__init__(f"{rule}: {detail}{ev}")
        self.rule = rule
        self.detail = detail
        self.events = tuple(events)


class ReplayDivergence(InvariantViolation):
    """A replayed run did not reproduce the recorded run bit-for-bit
    (see :mod:`repro.check.replay`)."""


class ContainerError(PeppherError):
    """Smart container misuse (e.g. access after shutdown)."""


class CDeclError(PeppherError):
    """A C function declaration could not be parsed (utility mode input)."""


class ConstraintError(PeppherError):
    """A selectability constraint is malformed or unsatisfiable."""
