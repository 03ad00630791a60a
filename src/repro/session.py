"""The unified ``repro.Session`` facade.

A :class:`Session` is a :class:`~repro.runtime.runtime.Runtime` that
also resolves a machine from a preset name or factory, opens a
persistent performance-model store from a path, writes traces to a
directory, offers an asyncio surface and restarts in place::

    from repro import Session

    with Session("c2050", store="~/.peppher-models") as s:
        h = s.register(array)
        s.submit(codelet, [(h, "rw")], ctx={"n": 1024})
        s.wait_for_all()
        s.save_trace("run.json")
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.errors import PeppherError
from repro.hw.description import Machine
from repro.hw.presets import by_name
from repro.runtime.runtime import Runtime
from repro.runtime.trace_export import (
    gantt_text,
    save_chrome_trace,
    save_trace_json,
)
from repro.tuning.store import PerfModelStore


class Session(Runtime):
    """A runtime on a machine named by preset or factory.

    Parameters
    ----------
    machine:
        A preset name (``"c2050"``, ``"c1060"``, ``"2xc2050"``,
        ``"cpu"``), a zero-argument machine factory, or a built
        :class:`~repro.hw.description.Machine`.  ``machine_options`` are
        forwarded to the preset/factory (e.g. ``n_cpu_cores=5``).
    store:
        A :class:`~repro.tuning.store.PerfModelStore` or a directory
        path for one.  The runtime warm-starts from the machine's
        calibrated models and merges its observations back at shutdown.
    trace_dir:
        Default directory for :meth:`save_trace` outputs.

    Every other argument is :class:`~repro.runtime.runtime.Runtime`'s.
    A metrics suite and an exec backend named by string follow the
    session across :meth:`restart`; the backend is closed at
    :meth:`shutdown`.
    """

    def __init__(
        self,
        machine: str | Machine | Callable[..., Machine] = "c2050",
        *args,
        store: "PerfModelStore | str | Path | None" = None,
        trace_dir: str | Path | None = None,
        machine_options: Mapping[str, object] | None = None,
        **options,
    ) -> None:
        opts = dict(machine_options or {})
        if isinstance(machine, str):
            name = machine
            self._machine_factory: Callable[[], Machine] = lambda: by_name(
                name, **opts
            )
        elif isinstance(machine, Machine):
            if opts:
                raise PeppherError(
                    "machine_options only apply when machine is a preset "
                    "name or factory"
                )
            built = machine
            self._machine_factory = lambda: built
        elif callable(machine):
            factory = machine
            self._machine_factory = lambda: factory(**opts)
        else:
            raise PeppherError(
                f"machine must be a preset name, Machine or factory, "
                f"got {type(machine).__name__}"
            )
        if store is not None and not isinstance(store, PerfModelStore):
            store = PerfModelStore(Path(store).expanduser())
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._aio_pool = None  # lazy serializer for submit_async
        super().__init__(self._machine_factory(), *args, store=store, **options)

    # -- lifecycle -----------------------------------------------------------

    def restart(self, seed: int | None = None) -> "Session":
        """Close the current engine and open a fresh one in place.

        The new engine runs on a fresh machine from the same preset or
        factory, at ``seed`` (the previous seed plus one by default),
        and keeps the learned performance model: through the store when
        one is configured (the close merges, the open warm-loads),
        directly otherwise.  This is the calibrate-then-measure pattern
        (first run explores, later runs are warm) without manual model
        plumbing.  The exec backend and the metrics suite carry over.
        """
        model = self.perfmodel
        self._close()
        self._open(
            self._machine_factory(), self.seed + 1 if seed is None else seed, model
        )
        return self

    def shutdown(self) -> float:
        """Close the runtime, then the asyncio serializer."""
        try:
            return super().shutdown()
        finally:
            if self._aio_pool is not None:
                self._aio_pool.shutdown(wait=True)
                self._aio_pool = None

    # -- asyncio surface ------------------------------------------------------

    def _serializer(self):
        """Single-worker executor serializing engine access for asyncio.

        The engine is a single-threaded state machine; funneling every
        async submit/wait through one worker thread keeps it that way
        while letting the *kernels* (dispatched to the exec backend from
        that worker) overlap freely.
        """
        if self._aio_pool is None:
            import concurrent.futures

            self._aio_pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-session-aio"
            )
        return self._aio_pool

    async def submit_async(
        self,
        codelet,
        operands: Sequence,
        ctx: Mapping[str, object] | None = None,
        scalar_args: tuple = (),
        priority: int = 0,
        name: str = "",
    ):
        """Submit a task and await its completion (asyncio-native).

        Submission and completion are two separate hops on the session's
        serializer thread, so ``asyncio.gather`` over several
        ``submit_async`` calls submits *all* tasks before waiting on any
        of them — with a real execution backend their kernels genuinely
        overlap.  Returns the completed :class:`~repro.runtime.task.Task`.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        pool = self._serializer()
        task = await loop.run_in_executor(
            pool,
            lambda: self.submit(
                codelet,
                operands,
                ctx=ctx,
                scalar_args=scalar_args,
                priority=priority,
                name=name,
            ),
        )
        await loop.run_in_executor(
            pool, lambda: self.engine.wait_for_task(task)
        )
        return task

    async def submit_batch_async(self, requests: Sequence[Mapping]):
        """Submit many tasks concurrently and await them all.

        Each request is a mapping of :meth:`submit_async` keyword
        arguments (``codelet`` and ``operands`` required, e.g.
        ``{"codelet": c, "operands": [(h, "rw")], "ctx": {...}}``).
        Returns the completed tasks in request order.
        """
        import asyncio

        return await asyncio.gather(
            *(self.submit_async(**dict(req)) for req in requests)
        )

    # -- trace export --------------------------------------------------------

    def _trace_path(self, path: str | Path) -> Path:
        path = Path(path)
        if self.trace_dir is not None and not path.is_absolute():
            path = self.trace_dir / path
        return path

    def save_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON for the current trace."""
        return save_chrome_trace(self.trace, self.machine, self._trace_path(path))

    def save_trace_json(self, path: str | Path) -> Path:
        """Write the *lossless* trace JSON (machine summary included),
        the input format of ``python -m repro.check``."""
        return save_trace_json(self.trace, self.machine, self._trace_path(path))

    def gantt(self, width: int = 72) -> str:
        """Terminal Gantt chart of the current trace."""
        return gantt_text(self.trace, self.machine, width=width)
