"""Execution-trace export for visualisation.

StarPU generates Paje traces viewable in ViTE; the modern equivalent is
the Chrome trace-event format (load ``chrome://tracing`` or Perfetto).
This module exports an :class:`~repro.runtime.stats.ExecutionTrace` as:

- **Chrome trace-event JSON** — one row per worker plus one per DMA
  direction, tasks and transfers as duration events with variant /
  operand metadata, queue-depth and per-worker utilization counter
  tracks, and (for serving runs) one row per tenant with request
  lifecycle spans and shed/failure instants;
- **text Gantt** — a quick terminal rendering for examples and debugging.

:func:`task_load` is the one derivation of pending, running and
per-worker busy task counts: the Chrome counter tracks render it, and
:class:`~repro.obs.samplers.EngineSamplers` evaluates it at their
period boundaries.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.errors import RuntimeSystemError
from repro.hw.description import (
    DIRECTIONS,
    HOST_NODE,
    Machine,
    transfer_direction,
)
from repro.runtime.stats import ExecutionTrace

#: microseconds per virtual second in the exported timestamps
_US = 1e6

#: format version of the lossless trace JSON (bumped on schema changes)
TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class UnitInfo:
    """One processing unit, as much as trace checking needs to know."""

    unit_id: int
    memory_node: int
    name: str


@dataclass(frozen=True)
class MachineInfo:
    """Minimal machine description embedded in saved traces.

    The invariant checker accepts either a live
    :class:`~repro.hw.description.Machine` or this summary, so
    ``python -m repro.check trace.json`` needs nothing but the file.
    """

    name: str
    units: tuple[UnitInfo, ...]
    n_memory_nodes: int
    #: per link node: True when h2d/d2h have independent DMA engines
    duplex: dict[int, bool]

    @classmethod
    def of(cls, machine: "Machine | MachineInfo") -> "MachineInfo":
        if isinstance(machine, MachineInfo):
            return machine
        return cls(
            name=machine.name,
            units=tuple(
                UnitInfo(
                    unit_id=u.unit_id,
                    memory_node=u.memory_node,
                    name=u.device.name,
                )
                for u in machine.units
            ),
            n_memory_nodes=machine.n_memory_nodes,
            duplex=machine.duplex,
        )


# ---------------------------------------------------------------------------
# lossless trace JSON (the ``python -m repro.check`` input format)
# ---------------------------------------------------------------------------

_COUNTER_FIELDS = (
    "n_submitted",
    "n_tasks_aborted",
    "next_seq",
    "n_task_retries",
    "n_tasks_recovered",
    "n_tasks_lost",
    "n_fallbacks",
    "n_exploration_decisions",
)


def trace_to_dict(trace: ExecutionTrace, machine: Machine | MachineInfo) -> dict:
    """Lossless JSON-able form of the trace plus the machine summary."""
    info = MachineInfo.of(machine)
    doc: dict = {
        "format": "repro-trace",
        "version": TRACE_FORMAT_VERSION,
        "machine": {
            "name": info.name,
            "units": [asdict(u) for u in info.units],
            "n_memory_nodes": info.n_memory_nodes,
            "duplex": {str(k): v for k, v in info.duplex.items()},
        },
    }
    state = trace.state_dict()
    for key in (
        *ExecutionTrace.RECORD_KINDS,
        *_COUNTER_FIELDS,
        "blacklisted_workers",
        "lost_workers",
    ):
        doc[key] = state[key]
    return doc


def trace_from_dict(doc: dict) -> tuple[ExecutionTrace, MachineInfo]:
    """Rebuild (trace, machine summary) from :func:`trace_to_dict` output."""
    if doc.get("format") != "repro-trace":
        raise RuntimeSystemError(
            "not a repro trace document (missing format marker); expected "
            "the output of save_trace_json, not a Chrome trace"
        )
    if doc.get("version") != TRACE_FORMAT_VERSION:
        raise RuntimeSystemError(
            f"trace format version {doc.get('version')!r} not supported "
            f"(this build reads version {TRACE_FORMAT_VERSION})"
        )
    m = doc["machine"]
    info = MachineInfo(
        name=m["name"],
        units=tuple(UnitInfo(**u) for u in m["units"]),
        n_memory_nodes=int(m["n_memory_nodes"]),
        duplex={int(k): bool(v) for k, v in m.get("duplex", {}).items()},
    )
    trace = ExecutionTrace()
    for key, cls in ExecutionTrace.RECORD_CLASSES.items():
        names = set(cls._fields)
        for raw in doc.get(key, []):
            kwargs = {k: v for k, v in raw.items() if k in names}
            for tup in ("worker_ids", "reads", "writes", "deps", "related"):
                if tup in kwargs and kwargs[tup] is not None:
                    kwargs[tup] = tuple(kwargs[tup])
            getattr(trace, key).append(cls.make(**kwargs))
    for key in _COUNTER_FIELDS:
        setattr(trace, key, int(doc.get(key, 0)))
    trace.blacklisted_workers = set(doc.get("blacklisted_workers", []))
    trace.lost_workers = set(doc.get("lost_workers", []))
    return trace, info


def save_trace_json(
    trace: ExecutionTrace, machine: Machine | MachineInfo, path: str | Path
) -> Path:
    """Write the lossless trace JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_to_dict(trace, machine), indent=1))
    return path


def load_trace_json(path: str | Path) -> tuple[ExecutionTrace, MachineInfo]:
    """Read a lossless trace JSON back into (trace, machine summary)."""
    return trace_from_dict(json.loads(Path(path).read_text()))


def canonical_chrome_json(trace: ExecutionTrace, machine: Machine) -> str:
    """Chrome trace JSON of the *canonicalized* trace, byte-stable.

    Two runs that made identical decisions produce identical strings
    even though task/handle ids come from process-global counters: the
    trace is renumbered (:meth:`ExecutionTrace.canonicalized`) and the
    JSON is dumped with sorted keys and no incidental whitespace.
    """
    doc = to_chrome_trace(trace.canonicalized(), machine)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_chrome_trace(trace: ExecutionTrace, machine: Machine) -> dict:
    """Build the Chrome trace-event JSON object."""
    events: list[dict] = []
    # process/thread naming metadata
    for unit in machine.units:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": unit.unit_id,
                "args": {"name": f"{unit.device.name} #{unit.unit_id}"},
            }
        )
    dma_tid_base = len(machine.units)
    for i, node in enumerate(sorted(machine.links)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": dma_tid_base + i,
                "args": {"name": f"DMA node {node}"},
            }
        )
    dma_tid = {node: dma_tid_base + i for i, node in enumerate(sorted(machine.links))}

    for rec in trace.tasks:
        for tid in rec.worker_ids:
            events.append(
                {
                    "name": rec.variant,
                    "cat": "task," + rec.arch,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": rec.start_time * _US,
                    "dur": rec.duration * _US,
                    "args": {
                        "codelet": rec.codelet,
                        "task": rec.name,
                        "energy_j": rec.energy_j,
                    },
                }
            )
    for rec in trace.transfers:
        link_node = rec.src_node if rec.dst_node == HOST_NODE else rec.dst_node
        direction = DIRECTIONS[transfer_direction(rec.src_node, rec.dst_node)]
        events.append(
            {
                "name": f"{direction}:{rec.handle_name}",
                "cat": "transfer",
                "ph": "X",
                "pid": 0,
                "tid": dma_tid.get(link_node, dma_tid_base),
                "ts": rec.start_time * _US,
                "dur": (rec.end_time - rec.start_time) * _US,
                "args": {"bytes": rec.nbytes, "src": rec.src_node, "dst": rec.dst_node},
            }
        )
    for ev in trace.evictions:
        events.append(
            {
                "name": f"evict:{ev.handle_name}",
                "cat": "eviction",
                "ph": "i",
                "s": "g",
                "pid": 0,
                "tid": dma_tid.get(ev.node, dma_tid_base),
                "ts": ev.time * _US,
                "args": {"bytes": ev.nbytes, "flushed": ev.flushed},
            }
        )
    # faults: instant events where they struck (worker row for execution
    # faults, DMA row for transfer corruption), plus flow arrows chaining
    # each task's failed attempts to the execution that finally succeeded
    final_start = {rec.task_id: rec for rec in trace.tasks}
    flow_open: dict[int, bool] = {}
    for fl in trace.faults:
        if fl.worker_ids:
            tid = fl.worker_ids[0]
        else:
            tid = dma_tid.get(fl.node, dma_tid_base) if fl.node else dma_tid_base
        events.append(
            {
                "name": f"fault:{fl.kind}",
                "cat": "fault",
                "ph": "i",
                "s": "t" if fl.worker_ids else "g",
                "pid": 0,
                "tid": tid,
                "ts": fl.time * _US,
                "args": {
                    "kind": fl.kind,
                    "task": fl.task_name,
                    "handle": fl.handle_name,
                    "attempt": fl.attempt,
                    "detail": fl.detail,
                },
            }
        )
        if fl.task_id is None or fl.task_id not in final_start:
            continue
        events.append(
            {
                "name": "retry",
                "cat": "fault",
                "ph": "t" if flow_open.get(fl.task_id) else "s",
                "pid": 0,
                "tid": tid,
                "ts": fl.time * _US,
                "id": fl.task_id,
            }
        )
        flow_open[fl.task_id] = True
    for task_id in flow_open:
        rec = final_start[task_id]
        events.append(
            {
                "name": "retry",
                "cat": "fault",
                "ph": "f",
                "bp": "e",
                "pid": 0,
                "tid": rec.worker_ids[0],
                "ts": rec.start_time * _US,
                "id": task_id,
            }
        )
    events.extend(_counter_events(trace, machine))
    if trace.requests:
        events.extend(_request_events(trace))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TaskLoad(NamedTuple):
    """Recorded task occupancy at ascending instants (:func:`task_load`)."""

    times: np.ndarray
    #: tasks submitted but not started (submit <= t < start)
    pending: np.ndarray
    #: tasks started but not ended (start <= t < end)
    running: np.ndarray
    #: per worker id that ran a task: tasks occupying it (start <= t < end)
    busy: dict[int, np.ndarray]
    #: latest end among tasks submitted by t, minus t, floored at 0
    backlog: np.ndarray


def task_load(trace: ExecutionTrace, at=None) -> TaskLoad:
    """Pending, running and per-worker busy task counts at instants ``at``.

    One NumPy fold over the task columns (``submit_time``, ``start_time``,
    ``end_time``, ``worker_ids``): each count is a difference of two
    ``searchsorted`` ranks into a sorted time column, so ``n`` tasks at
    ``s`` instants cost O((n + s) log n).  A count at ``t`` includes every
    change at ``t``.  ``at`` (ascending) defaults to every distinct
    submit, start and end time, the instants where a count can change.

    Only recorded tasks count: a task held in a bulk policy's lookahead
    window enters the trace when the window flushes.
    """
    # copies, not views: a live view would stop the columns from growing
    submit, start, end = (
        np.array(trace.columns(field), dtype=np.float64)
        for field in ("submit_time", "start_time", "end_time")
    )
    times = np.asarray(
        np.unique(np.concatenate((submit, start, end))) if at is None else at,
        dtype=np.float64,
    )

    def upto(col: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.sort(col), times, side="right")

    # one slot per (task, occupied worker): a gang task occupies several
    rows, slots = trace.worker_slots()
    by_submit = np.argsort(submit, kind="stable")
    latest = np.concatenate(([-np.inf], np.maximum.accumulate(end[by_submit])))
    n_submitted = np.searchsorted(submit[by_submit], times, side="right")
    n_started = upto(start)
    return TaskLoad(
        times=times,
        pending=n_submitted - n_started,
        running=n_started - upto(end),
        busy={
            w: upto(start[rows[slots == w]]) - upto(end[rows[slots == w]])
            for w in np.unique(slots).tolist()
        },
        backlog=np.maximum(latest[n_submitted] - times, 0.0),
    )


def _counter_events(trace: ExecutionTrace, machine: Machine) -> list[dict]:
    """Queue-depth and per-worker utilization counter tracks.

    Rendered from :func:`task_load` at every task boundary: the number of
    submitted-but-not-started (pending) and running tasks and the count
    of busy workers, plus each worker's own busy count wherever a task
    starts or ends on it.
    """
    load = task_load(trace)
    busy = {w: counts.tolist() for w, counts in load.busy.items()}
    # the workers each instant touches, in record order
    touched: dict[float, dict[int, None]] = {}
    for wids, start, end in zip(
        trace.columns("worker_ids"),
        trace.columns("start_time"),
        trace.columns("end_time"),
    ):
        for w in wids:
            touched.setdefault(start, {})[w] = None
            touched.setdefault(end, {})[w] = None
    events: list[dict] = []
    for i, (t, pending, running, n_busy) in enumerate(
        zip(
            load.times.tolist(),
            load.pending.tolist(),
            load.running.tolist(),
            sum(load.busy.values(), np.zeros(len(load.times), np.int64)).tolist(),
        )
    ):
        events.append(
            {
                "name": "queue depth",
                "cat": "counter",
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "ts": t * _US,
                "args": {"pending": pending, "running": running},
            }
        )
        events.append(
            {
                "name": "workers busy",
                "cat": "counter",
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "ts": t * _US,
                "args": {"busy": n_busy},
            }
        )
        for w in touched.get(t, ()):
            events.append(
                {
                    "name": f"util u{w}",
                    "cat": "counter",
                    "ph": "C",
                    "pid": 0,
                    "tid": w,
                    "ts": t * _US,
                    "args": {"busy": busy[w][i]},
                }
            )
    return events


#: serving rows live in their own trace process, below the engine's
_SERVE_PID = 1


def _request_events(trace: ExecutionTrace) -> list[dict]:
    """Per-tenant request rows for serving runs.

    Each tenant gets one thread row: completed requests are duration
    spans from arrival to completion (latency decomposition in args),
    shed and failed requests are instant markers.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _SERVE_PID,
            "tid": 0,
            "args": {"name": "serving"},
        }
    ]
    tenant_tid = {name: i for i, name in enumerate(trace.tenants())}
    for name, tid in tenant_tid.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _SERVE_PID,
                "tid": tid,
                "args": {"name": f"tenant {name}"},
            }
        )
    for rec in trace.requests:
        tid = tenant_tid[rec.tenant]
        if rec.completed:
            events.append(
                {
                    "name": rec.codelet,
                    "cat": "request",
                    "ph": "X",
                    "pid": _SERVE_PID,
                    "tid": tid,
                    "ts": rec.arrival_time * _US,
                    "dur": rec.latency * _US,
                    "args": {
                        "req": rec.req_id,
                        "batch": rec.batch_size,
                        "queue_wait_ms": rec.queue_wait * 1e3,
                        "pending_wait_ms": rec.pending_wait * 1e3,
                        "exec_ms": rec.exec_s * 1e3,
                        "transfer_ms": rec.transfer_s * 1e3,
                        "delayed": rec.delayed,
                    },
                }
            )
        else:
            kind = "shed" if rec.shed else "failed"
            events.append(
                {
                    "name": f"{kind}:{rec.codelet}",
                    "cat": "request",
                    "ph": "i",
                    "s": "t",
                    "pid": _SERVE_PID,
                    "tid": tid,
                    "ts": rec.arrival_time * _US,
                    "args": {"req": rec.req_id, "delayed": rec.delayed},
                }
            )
    return events


def save_chrome_trace(
    trace: ExecutionTrace, machine: Machine, path: str | Path
) -> Path:
    """Write the Chrome trace JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(trace, machine), indent=1))
    return path


def gantt_text(
    trace: ExecutionTrace, machine: Machine, width: int = 72
) -> str:
    """Quick terminal Gantt chart of the worker timelines."""
    span = trace.makespan
    if span <= 0:
        return "(empty trace)"
    lines = [f"Gantt over {span * 1e3:.3f} ms (each column ~ {span / width * 1e3:.3f} ms)"]
    for unit in machine.units:
        row = [" "] * width
        for rec in trace.tasks:
            if unit.unit_id not in rec.worker_ids:
                continue
            lo = int(rec.start_time / span * (width - 1))
            hi = max(int(rec.end_time / span * (width - 1)), lo)
            mark = {"cpu": "#", "openmp": "=", "cuda": "@", "opencl": "%"}.get(
                rec.arch, "*"
            )
            for i in range(lo, min(hi + 1, width)):
                row[i] = mark
        label = f"{unit.device.name[:14]:<14s} u{unit.unit_id}"
        lines.append(f"{label:<18s}|{''.join(row)}|")
    if trace.transfers:
        row = [" "] * width
        for rec in trace.transfers:
            lo = int(rec.start_time / span * (width - 1))
            hi = max(int(rec.end_time / span * (width - 1)), lo)
            mark = "v" if rec.is_d2h else "^"
            for i in range(lo, min(hi + 1, width)):
                row[i] = mark
        lines.append(f"{'PCIe DMA':<18s}|{''.join(row)}|")
    lines.append(
        "legend: # cpu, = openmp gang, @ cuda, % opencl, ^ h2d, v d2h"
    )
    return "\n".join(lines)
