"""The ``ExecutionBackend`` protocol: where codelet kernels actually run.

The discrete-event engine models *time* analytically; the kernels
operate on real NumPy payloads.  An execution backend decides **where
and how the kernel computation runs**:

- :class:`~repro.exec.simulated.SimulatedBackend` (``inline=True``, the
  default) runs kernels synchronously on the submitting thread — the
  engine path used since the first PR, byte-identical;
- :class:`~repro.exec.thread.ThreadPoolBackend` dispatches kernels to a
  ``ThreadPoolExecutor`` so GIL-releasing NumPy kernels genuinely
  overlap, each wall-clock timed in its worker;
- :class:`~repro.exec.process.ProcessPoolBackend` ships kernels to
  worker processes (picklability validated up front), copies written
  operands back, and times inside the worker.

The engine talks to backends through two calls: ``prepare_codelet``
(registration-time validation, e.g. picklability for process pools) and
``dispatch_task`` (returns an :class:`ExecFuture` the engine joins at
the data-hazard/barrier points).  Layers below the engine — calibration,
tests, ad-hoc measurement — use ``submit_kernel`` / ``measure``
directly.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import ExecBackendError
from repro.exec.timing import Measurement, timed_call

if TYPE_CHECKING:  # pragma: no cover - typing only
    import concurrent.futures

    from repro.runtime.codelet import Codelet
    from repro.runtime.task import Task


class ExecFuture:
    """Handle on one in-flight kernel execution.

    ``result()`` blocks until the kernel finished and returns its
    :class:`~repro.exec.timing.Measurement`; backends that execute out
    of process apply operand write-backs before returning.  ``cancel()``
    withdraws a kernel that has not started (queued behind a busy pool);
    a cancelled future's ``result()`` raises
    :class:`concurrent.futures.CancelledError`.
    """

    def __init__(self, inner: "concurrent.futures.Future[Measurement]") -> None:
        self._inner = inner

    def result(self, timeout: float | None = None) -> Measurement:
        return self._inner.result(timeout=timeout)

    def cancel(self) -> bool:
        """Try to withdraw a not-yet-started kernel; True on success."""
        return self._inner.cancel()

    def cancelled(self) -> bool:
        return self._inner.cancelled()

    def done(self) -> bool:
        return self._inner.done()

    def running(self) -> bool:
        return self._inner.running()

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._inner.exception(timeout=timeout)


def _run_inline(thunk: "Callable[[], Measurement]") -> ExecFuture:
    """Run a kernel thunk now; return an already-resolved future.

    Kernel exceptions are captured into the future (not raised here) so
    inline backends surface errors exactly where pool backends do — at
    ``result()``.  ``concurrent.futures`` (and the ``logging`` it pulls
    in) loads here, at the first future, not with the engine.
    """
    from concurrent.futures import Future

    fut: "concurrent.futures.Future[Measurement]" = Future()
    try:
        measurement = thunk()
    except BaseException as exc:
        fut.set_exception(exc)
    else:
        fut.set_result(measurement)
    return ExecFuture(fut)


class ExecutionBackend:
    """Base class of all execution backends.

    Attributes
    ----------
    name:
        Stable backend identifier ("simulated", "thread", "process"),
        recorded in every :class:`~repro.exec.timing.Measurement` and in
        calibration provenance.
    inline:
        True when kernels run synchronously on the submitting thread;
        the engine then keeps its original (pre-backend) code path and
        records no measurements — the byte-identical default.
    """

    name: str = "abstract"
    inline: bool = True

    # -- engine-facing surface ------------------------------------------------

    def prepare_codelet(self, codelet: "Codelet") -> None:
        """Registration-time validation hook; raises a structured error
        (never a mid-run one) when a codelet cannot run on this backend."""

    def dispatch_task(self, task: "Task") -> ExecFuture:
        """Start the chosen variant's kernel for ``task``; non-blocking
        for pool backends.  The engine joins the returned future at the
        data-hazard and barrier points."""
        raise NotImplementedError

    # -- direct surface (calibration, tests) ----------------------------------

    def submit_kernel(
        self,
        fn: Callable,
        ctx: Mapping[str, object],
        arrays: Sequence,
        scalar_args: tuple = (),
        writes: Sequence[int] = (),
        *,
        codelet: str = "",
        variant: str = "",
        task_id: int = -1,
    ) -> ExecFuture:
        """Run ``fn(ctx, *arrays, *scalar_args)`` on this backend.

        ``writes`` lists the indices of ``arrays`` the kernel mutates —
        needed by out-of-process backends to copy results back; inline
        and thread backends share memory and ignore it.
        """
        raise NotImplementedError

    def measure(
        self,
        fn: Callable,
        ctx: Mapping[str, object],
        arrays: Sequence,
        scalar_args: tuple = (),
        writes: Sequence[int] = (),
        warmup: int = 1,
        reps: int = 3,
        *,
        codelet: str = "",
        variant: str = "",
    ) -> list[Measurement]:
        """Warmup-aware wall-clock measurement of one kernel.

        Runs ``warmup`` discarded invocations (allocator warm-up, BLAS
        thread spin-up, cache priming), then ``reps`` measured ones —
        sequentially, so measurements never contend with each other.
        """
        if warmup < 0 or reps < 1:
            raise ExecBackendError(
                f"measure needs warmup >= 0 and reps >= 1, got "
                f"warmup={warmup}, reps={reps}"
            )
        kw = dict(writes=writes, codelet=codelet, variant=variant)
        for _ in range(warmup):
            self.submit_kernel(fn, ctx, arrays, scalar_args, **kw).result()
        return [
            self.submit_kernel(fn, ctx, arrays, scalar_args, **kw).result()
            for _ in range(reps)
        ]

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release pool resources; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def make_backend(spec: "str | ExecutionBackend", **options) -> ExecutionBackend:
    """Resolve a backend by name (``"simulated"``, ``"thread"``,
    ``"process"``) with ``options`` as constructor keywords; instances
    pass through (options then disallowed)."""
    if isinstance(spec, ExecutionBackend):
        if options:
            raise ExecBackendError(
                "backend options only apply when the backend is given by name"
            )
        return spec
    try:
        module, cls = _BACKENDS[spec]
    except KeyError:
        raise ExecBackendError(
            f"unknown execution backend {spec!r}; known: {sorted(_BACKENDS)}"
        ) from None
    # only the backend asked for loads (the pools pull in
    # concurrent.futures, and the process pool multiprocessing)
    return getattr(import_module(module), cls)(**options)


#: backend name -> (module, class)
_BACKENDS = {
    "simulated": ("repro.exec.simulated", "SimulatedBackend"),
    "thread": ("repro.exec.thread", "ThreadPoolBackend"),
    "process": ("repro.exec.process", "ProcessPoolBackend"),
}


__all__ = [
    "ExecFuture",
    "ExecutionBackend",
    "Measurement",
    "make_backend",
    "timed_call",
]
