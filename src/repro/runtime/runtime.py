"""The Runtime facade: PEPPHER's runtime-system API surface.

Generated entry-wrappers (and hand-written "direct" code) talk to this
class, the analog of StarPU's public API as the paper uses it:
``PEPPHER_INITIALIZE()`` / ``PEPPHER_SHUTDOWN()``, data registration,
asynchronous and synchronous task submission, explicit acquire/release of
data from the application program, and a task barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PeppherError, RuntimeSystemError
from repro.hw.faults import FaultModel
from repro.hw.description import Machine
from repro.hw.noise import NoiseModel, NullNoise
from repro.runtime.access import AccessMode
from repro.runtime.codelet import Codelet
from repro.runtime.data import DataHandle
from repro.runtime.engine import Engine, RecoveryPolicy
from repro.runtime.perfmodel import PerfModel
from repro.runtime.schedulers import make_scheduler
from repro.runtime.stats import ExecutionTrace
from repro.runtime.task import Operand, Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import ExecutionBackend
    from repro.obs.suite import MetricsSuite
    from repro.tuning.store import PerfModelStore


class Runtime:
    """One runtime session on a (simulated) heterogeneous machine.

    Parameters
    ----------
    machine:
        The machine to execute on (see :mod:`repro.hw.presets`).
    scheduler:
        A policy name (``"eager"``, ``"random"``, ``"ws"``, ``"dm"``,
        ``"dmda"``, ...).  The paper's
        performance-aware dynamic composition corresponds to ``"dmda"``.
    seed:
        Seed for timing noise and randomized policies; runs are
        bit-reproducible for a fixed seed.
    noise_sigma:
        Relative timing jitter; 0 disables noise.
    submit_overhead_s:
        Host virtual time charged per task submission.
    run_kernels:
        When False, tasks advance time but skip the real computation.
    perfmodel:
        Optionally start from a pre-trained performance model (e.g.
        loaded from disk), like StarPU's persistent calibration files.
    store:
        A :class:`~repro.tuning.store.PerfModelStore`: the machine's
        calibrated model is loaded at start-up (stale entries raise
        :class:`~repro.errors.StaleModelError` instead of being reused)
        and the updated model is merged back at shutdown.  Mutually
        exclusive with ``perfmodel``.
    faults:
        Optional :class:`~repro.hw.faults.FaultModel` injecting transient
        kernel failures, transfer corruption and device loss.  ``None``
        disables fault injection entirely (zero overhead).
    recovery:
        :class:`~repro.runtime.engine.RecoveryPolicy` governing retries,
        backoff, and worker blacklisting under faults.
    check:
        Run the :mod:`repro.check.invariants` trace checker when the
        session shuts down cleanly; the first violation raises
        :class:`~repro.errors.InvariantViolation`.  ``None`` (default)
        defers to the process-wide default
        (:func:`repro.check.config.default_check` / ``REPRO_CHECK=1``).
    record:
        Record every scheduling decision into a
        :class:`~repro.check.replay.DecisionLog` (see
        :attr:`decision_log`) for deterministic replay via the
        ``"replay"`` policy.
    exec_backend:
        Where kernels actually execute (see :mod:`repro.exec`): a
        backend name (``"simulated"``, ``"thread"``, ``"process"``), a
        backend instance, or ``None`` (default) for the original inline
        path.  A backend given by name is owned by this runtime and
        closed at shutdown; an instance is borrowed (callers sharing a
        pool across runtimes close it themselves).
    metrics:
        Live observability (see :mod:`repro.obs`): ``True`` attaches a
        fresh :class:`~repro.obs.MetricsSuite` (reachable as
        :attr:`metrics`), an existing suite is reused, a dict supplies
        suite keyword arguments (e.g. ``{"period_s": 1e-2}``), and
        ``False``/``None`` (default) leaves metrics off at no cost.

    Example
    -------
    >>> from repro.hw.presets import platform_c2050
    >>> rt = Runtime(platform_c2050())
    >>> # h = rt.register(array); rt.submit(codelet, [(h, "rw")], ctx={...})
    >>> # rt.wait_for_all(); rt.shutdown()
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: str = "dmda",
        seed: int = 0,
        noise_sigma: float = 0.03,
        submit_overhead_s: float = 1e-6,
        run_kernels: bool = True,
        perfmodel: PerfModel | None = None,
        scheduler_options: Mapping[str, object] | None = None,
        store: "PerfModelStore | None" = None,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        check: bool | None = None,
        record: bool = False,
        exec_backend: "str | ExecutionBackend | None" = None,
        metrics: "bool | dict | MetricsSuite | None" = None,
    ) -> None:
        if store is not None and perfmodel is not None:
            raise RuntimeSystemError("pass either store or perfmodel, not both")
        self.store = store
        self._check = check
        self._record = record
        self._policy = (scheduler, dict(scheduler_options or {}))
        self._noise_sigma = noise_sigma
        self._own_backend = isinstance(exec_backend, str)
        if self._own_backend:
            from repro.exec.base import make_backend

            exec_backend = make_backend(exec_backend)
        self.exec_backend = exec_backend
        self._engine_options = {
            "submit_overhead_s": submit_overhead_s,
            "run_kernels": run_kernels,
            "faults": faults,
            "recovery": recovery,
            "exec_backend": exec_backend,
        }
        self.metrics = None
        if metrics is not None:
            from repro.obs.suite import MetricsSuite

            self.metrics = MetricsSuite.create(metrics)
        self._open(machine, seed, perfmodel)

    def _open(self, machine: Machine, seed: int, perfmodel: PerfModel | None) -> None:
        """Start a fresh engine on ``machine`` from the configuration
        resolved at construction; a store, when set, supplies the
        model.  The recorder and the metrics suite follow the engine."""
        if self.store is not None:
            perfmodel = self.store.warm_model(machine)
        name, options = self._policy
        self.machine = machine
        self.seed = seed
        self.scheduler = make_scheduler(name, **options)
        sigma = self._noise_sigma
        noise = NullNoise() if sigma == 0 else NoiseModel(sigma=sigma, seed=seed)
        self.engine = Engine(
            machine=machine,
            scheduler=self.scheduler,
            perfmodel=perfmodel,
            noise=noise,
            seed=seed,
            **self._engine_options,
        )
        self._checked = False
        self._recorder = None
        if self._record:
            # decisions are captured from the typed event stream, not by
            # wrapping the scheduler: one schedule event per choose call
            from repro.check.replay import DecisionRecorder

            self._recorder = DecisionRecorder().attach(self.engine)
        if self.metrics is not None:
            self.metrics.attach(self.engine)

    # -- data ---------------------------------------------------------------

    def register(self, array: np.ndarray, name: str = "") -> DataHandle:
        """Register host data; returns a handle usable as task operand."""
        return self.engine.register(array, name=name)

    def unregister(self, handle: DataHandle) -> float:
        """Flush to host and release the handle (no further task use)."""
        return self.engine.unregister(handle)

    def unregister_submit(self, handle: DataHandle) -> None:
        """Release the handle once the tasks submitted on it complete,
        without flushing it home (its data is dead)."""
        self.engine.unregister_submit(handle)

    def acquire(self, handle: DataHandle, mode: str | AccessMode) -> float:
        """Block until the host may access the data with ``mode``."""
        if isinstance(mode, str):
            mode = AccessMode.parse(mode)
        return self.engine.acquire(handle, mode)

    def partition_equal(
        self, handle: DataHandle, n_chunks: int, axis: int = 0
    ) -> list[DataHandle]:
        return self.engine.partition_equal(handle, n_chunks, axis=axis)

    def partition_by_slices(
        self, handle: DataHandle, slices: Iterable
    ) -> list[DataHandle]:
        return self.engine.partition_by_slices(handle, slices)

    def unpartition(self, handle: DataHandle) -> float:
        return self.engine.unpartition(handle)

    # -- tasks ----------------------------------------------------------------

    def submit(
        self,
        codelet: Codelet,
        operands: Sequence[tuple[DataHandle, str | AccessMode]],
        ctx: Mapping[str, object] | None = None,
        scalar_args: tuple = (),
        sync: bool = False,
        priority: int = 0,
        name: str = "",
        parent: Task | None = None,
    ) -> Task:
        """Translate one component invocation into a runtime task.

        ``operands`` pairs each registered handle with its access mode
        (``"r"``/``"w"``/``"rw"`` or :class:`AccessMode`).  Asynchronous
        by default; ``sync=True`` blocks the host program until the task
        completes (entry-wrappers expose both, paper section IV-C).
        """
        task = self.make_task(codelet, operands, ctx, scalar_args, priority, name, parent)
        return self.engine.submit(task, sync)

    @staticmethod
    def make_task(
        codelet: Codelet,
        operands: Sequence[tuple[DataHandle, str | AccessMode]],
        ctx: Mapping[str, object] | None = None,
        scalar_args: tuple = (),
        priority: int = 0,
        name: str = "",
        parent: Task | None = None,
    ) -> Task:
        """The task :meth:`submit` would submit, not yet handed to the
        engine: a caller that must keep the task whatever its submit
        raises passes it to ``engine.submit`` itself."""
        parse = AccessMode.parse
        ops = [
            Operand(h, parse(m) if isinstance(m, str) else m)
            for h, m in operands
        ]
        return Task(codelet, ops, ctx, scalar_args, priority, parent, name)

    def wait_for_all(self) -> float:
        """Barrier over every submitted task; returns virtual time."""
        return self.engine.wait_for_all()

    def shutdown(self) -> float:
        """Drain and close the session; returns the final virtual time.

        When a model store was configured, the (now updated)
        performance model is merged back into it.
        With checking enabled (``check=True`` or the process default),
        the finished trace is validated against the run invariants and
        the first violation raises
        :class:`~repro.errors.InvariantViolation`.  A backend this
        runtime owns is closed whatever the engine's close raised.
        """
        try:
            return self._close()
        finally:
            if self._own_backend:
                self.exec_backend.close()

    def _close(self) -> float:
        """Drain and close the engine, merge its model into the store
        and check its trace; the exec backend stays open."""
        t = self.engine.shutdown()
        if self.store is not None:
            self.store.save(self.machine, self.engine.perf)
        if not self._checked and self._resolve_check():
            self._checked = True
            from repro.check.invariants import assert_trace_legal

            assert_trace_legal(self.trace, self.machine)
        return t

    def _resolve_check(self) -> bool:
        if self._check is not None:
            return self._check
        from repro.check.config import default_check

        return default_check()

    # -- introspection ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current host virtual time in seconds."""
        return self.engine.clock.now

    @property
    def trace(self) -> ExecutionTrace:
        return self.engine.trace

    @property
    def perfmodel(self) -> PerfModel:
        return self.engine.perf

    @property
    def measurements(self):
        """Wall-clock :class:`~repro.exec.timing.Measurement` records of
        every kernel joined by a real execution backend (empty on the
        inline path)."""
        return self.engine.measurements

    @property
    def decision_log(self):
        """The recorded :class:`~repro.check.replay.DecisionLog`, or
        ``None`` unless the session was built with ``record=True``."""
        return self._recorder.log if self._recorder is not None else None

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the session on both the clean and the error path.

        When the ``with`` body raised, shutdown still runs (so the
        session never leaks half-open state), but any secondary error it
        produces — e.g. ``wait_for_all`` complaining about the very tasks
        the in-flight exception interrupted — is swallowed rather than
        masking the original exception.
        """
        try:
            self.shutdown()
        except PeppherError:
            if exc_type is None:
                raise
