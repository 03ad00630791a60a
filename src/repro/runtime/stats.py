"""Execution trace and statistics for simulated runs.

The trace is the evidence base for every experiment in the paper:
makespan (Figures 5-7), per-worker utilisation (hybrid execution), data
transfer counts and volumes (Figure 3's copy elision, Figure 5's
communication bottleneck), and per-task timelines for debugging.

Storage layout
--------------

Records are stored *columnar* (struct-of-arrays) and materialized only
when somebody asks for one; at million-task scale per-record objects
dominated both the engine hot path and the memory a session keeps.
Each field has one column:

- ``array('d')`` for float fields (times, energy);
- a narrow int array for the integer fields of the engine's hot-path
  records: ``array('b')`` for the memory-node fields (``node``,
  ``src_node``, ``dst_node``), ``array('i')`` for the rest (task and
  transfer ids, sizes, sequence numbers);
- a :class:`RaggedColumn` for the task id-tuple fields (``reads``,
  ``writes``, ``deps``): one flat ``array('i')`` of ids plus an
  ``array('i')`` of row ends, read back as the same tuples;
- a :class:`CodedColumn` for the task fields with a handful of distinct
  values (``codelet``, ``variant``, ``arch``, ``worker_ids``): one small
  code per row plus a table of the values;
- a :class:`DerivedNames` column for the task ``name``: it keeps only
  the names callers gave (a ``<stem>#<n>`` name as a coded stem plus a
  number), and derives ``codelet#<task_id>`` for the rest from the
  codelet and id columns;
- a :class:`NameColumn` for the transfer and eviction ``handle_name``:
  a name ending in a number (``data17``, a served ``t0:C17``) as a
  coded stem plus the number, any other kept whole;
- a plain list otherwise: the other kinds' names and ids, and every
  field of the kinds only ever appended as whole records (evictions,
  faults, accesses, requests), so each value reads back as it was given
  (an int in a float field, the shared NaN of a shed request).

A value that does not fit a narrow int column (an id or size past
2**31 - 1, a node past 127) makes the append raise ``OverflowError``;
the store then rolls the row back, widens all its narrow int columns to
``array('q')`` in place and writes the row again, so no int64 value is
ever refused and the old all-``'q'`` layout is the worst case.  Readers
see Python ints either way, and the trace's own NumPy folds read int
columns as int64.

Typed columns hold a task's ids in machine words instead of boxed ints
and small tuples; a default-named task stores no string and no pointer
at all, so its row is about a hundred bytes.  The engine appends
raw field rows (:meth:`ExecutionTrace.add_task`,
:meth:`ExecutionTrace.add_transfer`) and never builds a record object
on the no-subscriber fast path.  A row is stored once, in the columns:
every read (an index, a slice, an iteration) builds a new record from
them, so a record a caller changes changes nothing in the trace; a row
is changed by assigning a record to it (``trace.tasks[i] =
rec.replace(...)``).  Those two stores are built with the trace; the
eviction, fault, request and access stores, which most runs never
write, are built with their views on first access, and the trace's own
readers (counts, aggregates, ``columns``, ``state_dict``, the canonical
form) read an unwritten kind as empty without building it.  Every aggregate
(``makespan``, ``tasks_by_arch()``, ...) is a fold over the columns on
each read: the trace keeps no derived state.

The blessed access API (stable across future layout changes):

- ``trace.tasks()`` / ``trace.transfers()`` / ``trace.faults()`` (and
  ``evictions()`` / ``accesses()`` / ``requests()``) — iterate lazily
  materialized records; the same attributes still behave like the lists
  they used to be (``len``, indexing, slicing, ``append``).
- ``trace.columns("end_time")`` — the raw column for one field, the
  cheapest way to fold an aggregate over a large trace; typed columns
  expose the buffer protocol, so ``np.frombuffer(col, col.typecode)``
  views them in place.
- ``TaskRecord.make(...)`` — the only way to build a record (tests,
  trace loaders); plus ``rec.replace(...)`` / ``rec.as_dict()`` /
  ``cls._fields`` standing in for the old dataclass conveniences.
  Calling the class directly raises :class:`TypeError`: record layout
  is an engine internal.
"""

from __future__ import annotations

import copy
import functools
import math
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import chain, repeat
from operator import itemgetter
from types import FunctionType, MappingProxyType, MemberDescriptorType

import numpy as np

from repro.hw.description import D2H, H2D, transfer_direction

# ---------------------------------------------------------------------------
# slotted record classes
# ---------------------------------------------------------------------------


class GeneratedName(str):
    """A name the runtime made up from a process-global id.

    Default task names (``codelet#<task_id>``) and handle names
    (``data<handle_id>``) embed ids that differ between runs in one
    process.  The subclass compares, hashes and serializes as the plain
    string; its type alone tells :meth:`ExecutionTrace.canonicalized`
    that the name may be renumbered, which a name the caller chose
    never is, whatever it looks like.
    """

    __slots__ = ()


def _restore(cls: type, values: tuple):
    """Unpickle helper: rebuild a record from its field-value tuple."""
    return _maker(cls)(*values)


@functools.cache
def _maker(cls: type) -> FunctionType:
    """``make(*values)``: a new ``cls`` record from its field values in
    order.  One slot store per field, compiled once per class, builds a
    record about twice as fast as a ``setattr`` loop."""
    fields = cls._fields
    args = ", ".join(f"v{k}" for k in range(len(fields)))
    body = "".join(f"    rec.{name} = v{k}\n" for k, name in enumerate(fields))
    src = f"def make({args}):\n    rec = new(cls)\n{body}    return rec\n"
    ns = {"new": cls.__new__, "cls": cls}
    exec(src, ns)  # noqa: S102 - static template, no external input
    return ns["make"]


class _Record:
    """Base for slotted trace records.

    Subclasses declare ``__slots__`` (the field order), ``_defaults``
    (trailing optional fields) and the fields the columnar store keeps
    typed: ``_float_fields`` in ``array('d')``, ``_int_fields`` in a
    narrow int array, ``_ragged_fields`` (id tuples) in a
    :class:`RaggedColumn`, ``_coded_fields`` in a :class:`CodedColumn`,
    ``_name_fields`` in a :class:`NameColumn` and ``_derived_names``
    (field -> its prefix and id fields) in a :class:`DerivedNames`
    column.  Equality, hashing, repr, ``replace`` and
    ``as_dict`` all derive from ``_fields`` so they match the old
    frozen-dataclass behaviour field for field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _float_fields: frozenset = frozenset()
    _int_fields: frozenset = frozenset()
    _ragged_fields: frozenset = frozenset()
    _coded_fields: frozenset = frozenset()
    _name_fields: frozenset = frozenset()
    _derived_names: dict = {}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        raise TypeError(f"build {name} records with {name}.make(...)")

    @classmethod
    def make(cls, *args, **kwargs):
        """Build a record from positional and keyword field values."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__} takes at most {len(names)} arguments "
                f"({len(args)} given)"
            )
        rec = cls.__new__(cls)
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(
                    f"{cls.__name__} got multiple values for {name!r}"
                )
            setattr(rec, name, value)
        defaults = cls._defaults
        for name in names[len(args) :]:
            if name in kwargs:
                setattr(rec, name, kwargs.pop(name))
            elif name in defaults:
                setattr(rec, name, defaults[name])
            else:
                raise TypeError(
                    f"{cls.__name__} missing required argument {name!r}"
                )
        if kwargs:
            bad = ", ".join(sorted(kwargs))
            raise TypeError(f"{cls.__name__} got unexpected arguments: {bad}")
        return rec

    def replace(self, **changes):
        """A copy with the given fields swapped (ex dataclasses.replace)."""
        cls = type(self)
        rec = cls.__new__(cls)
        for name in cls._fields:
            setattr(
                rec,
                name,
                changes.pop(name) if name in changes else getattr(self, name),
            )
        if changes:
            bad = ", ".join(sorted(changes))
            raise TypeError(f"{cls.__name__} has no fields: {bad}")
        return rec

    def as_dict(self) -> dict:
        """Field-name -> value mapping in field order (ex asdict)."""
        return {name: getattr(self, name) for name in self._fields}

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return _restore, (type(self), self._astuple())


class TaskRecord(_Record):
    """Completed-task timeline entry.

    ``energy_j`` is the modeled energy spent executing the task
    (duration x the busy power of every occupied worker, joules);
    ``node`` is the memory node the task computed from (its anchor
    worker's node); ``reads``/``writes`` are the handle ids touched;
    ``deps`` the task ids this task depended on (sequential data
    consistency); ``submit_seq`` the per-engine submission index (dense,
    unlike the global ``task_id``); ``seq`` the causal recording order
    shared with transfers/evictions/accesses — the invariant checker
    replays records in that order.  A trace stores ``name`` only when
    the caller gave one: an empty name reads back as the default
    ``codelet#<task_id>`` (a :class:`GeneratedName`), as for a task.
    """

    __slots__ = (
        "task_id",
        "name",
        "codelet",
        "variant",
        "arch",
        "worker_ids",
        "submit_time",
        "ready_time",
        "start_time",
        "end_time",
        "energy_j",
        "node",
        "reads",
        "writes",
        "deps",
        "submit_seq",
        "seq",
    )
    _fields = __slots__
    _defaults = {
        "energy_j": 0.0,
        "node": -1,
        "reads": (),
        "writes": (),
        "deps": (),
        "submit_seq": -1,
        "seq": -1,
    }
    _float_fields = frozenset(
        {"submit_time", "ready_time", "start_time", "end_time", "energy_j"}
    )
    _int_fields = frozenset({"task_id", "node", "submit_seq", "seq"})
    _ragged_fields = frozenset({"reads", "writes", "deps"})
    _coded_fields = frozenset({"codelet", "variant", "arch", "worker_ids"})
    _derived_names = {"name": ("codelet", "task_id")}

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class TransferRecord(_Record):
    """One modeled data copy between memory nodes."""

    __slots__ = (
        "handle_id",
        "handle_name",
        "src_node",
        "dst_node",
        "nbytes",
        "start_time",
        "end_time",
        "seq",
    )
    _fields = __slots__
    _defaults = {"seq": -1}
    _float_fields = frozenset({"start_time", "end_time"})
    _int_fields = frozenset(
        {"handle_id", "src_node", "dst_node", "nbytes", "seq"}
    )
    _name_fields = frozenset({"handle_name"})

    @property
    def is_h2d(self) -> bool:
        return transfer_direction(self.src_node, self.dst_node) == H2D

    @property
    def is_d2h(self) -> bool:
        return transfer_direction(self.src_node, self.dst_node) == D2H


class EvictionRecord(_Record):
    """One device-memory eviction (copy dropped to make room).

    ``flushed`` is True when the copy had to be written home first.
    """

    __slots__ = (
        "handle_id",
        "handle_name",
        "node",
        "nbytes",
        "time",
        "flushed",
        "seq",
    )
    _fields = __slots__
    _defaults = {"seq": -1}
    _name_fields = frozenset({"handle_name"})


#: host-access kinds (see :meth:`ExecutionTrace.record_access`)
ACCESS_KINDS = (
    "acquire",  # application program touched the data on the host
    "unregister",  # handle flushed home and released
    "partition",  # handle split into chunk children (``related`` ids)
    "unpartition",  # children gathered back into the parent
)


class AccessRecord(_Record):
    """One host-side data-management event (container/application access).

    The coherence half of the invariant checker needs these to replay
    the container state machine: a host read is only legal over a valid
    (or just-transferred) host copy, a host write makes the host the
    sole owner, and partitioning hands the parent's coherence state to
    its children.  ``mode`` is the access mode ("r"/"w"/"rw") for
    acquire events, "" otherwise; ``related`` holds child handle ids for
    partition/unpartition events.
    """

    __slots__ = (
        "kind",
        "handle_id",
        "handle_name",
        "mode",
        "time",
        "related",
        "seq",
    )
    _fields = __slots__
    _defaults = {"related": (), "seq": -1}


#: fault-record kinds (see :mod:`repro.hw.faults` for injection and the
#: engine's recovery layer for handling)
FAULT_KINDS = (
    "kernel",  # transient kernel failure during one execution attempt
    "transfer",  # one corrupted transfer attempt (retransmitted in place)
    "transfer_abort",  # transfer retransmissions exhausted; task attempt failed
    "device_lost",  # a device dropped off the bus permanently
    "replica_lost",  # sole-owner replica on a lost device, re-sourced from host
    "blacklisted",  # a worker crossed the transient-fault budget and was retired
)


class FaultRecord(_Record):
    """One injected fault (and how far recovery had to go).

    ``task_id`` is the failed task attempt (None for pure transfer/
    replica events); ``worker_ids`` the workers occupied by the failed
    attempt; ``node`` the memory node involved (transfers, device loss,
    replica recovery); ``attempt`` the retry attempt index this fault
    struck (0 = first try).
    """

    __slots__ = (
        "kind",
        "time",
        "task_id",
        "task_name",
        "worker_ids",
        "node",
        "handle_id",
        "handle_name",
        "attempt",
        "detail",
        "seq",
    )
    _fields = __slots__
    _defaults = {
        "task_id": None,
        "task_name": "",
        "worker_ids": (),
        "node": None,
        "handle_id": None,
        "handle_name": "",
        "attempt": 0,
        "detail": "",
        "seq": -1,
    }


#: shared by every default-constructed RequestRecord, so two traces
#: built in one process compare equal on never-set time fields (nan
#: equality holds only through the identity shortcut)
_NAN = float("nan")


class RequestRecord(_Record):
    """One client request served (or shed) by the composition service.

    Requests are the serving layer's unit of accounting: a tenant's
    component invocation travels arrival -> admission -> batch queue ->
    dispatch (task submission) -> execution.  The record decomposes the
    end-to-end latency into queue wait (arrival to dispatch), pending
    time (dispatch to execution start: staging transfers plus waiting
    for a worker) and execution time, which is what the per-tenant SLO
    report aggregates.  ``shed`` marks rejection by admission control
    (never dispatched); ``delayed`` a request held back by a delaying
    admission controller; ``failed`` dispatched but abandoned
    (unrecoverable injected fault); ``transfer_s`` seconds of staging
    transfers committed while dispatching; ``batch_size`` the coalesced
    batch the request was dispatched in.
    """

    __slots__ = (
        "tenant",
        "req_id",
        "codelet",
        "arrival_time",
        "shed",
        "delayed",
        "failed",
        "dispatch_time",
        "start_time",
        "end_time",
        "transfer_s",
        "batch_size",
        "task_id",
    )
    _fields = __slots__
    _defaults = {
        "shed": False,
        "delayed": False,
        "failed": False,
        "dispatch_time": _NAN,
        "start_time": _NAN,
        "end_time": _NAN,
        "transfer_s": 0.0,
        "batch_size": 1,
        "task_id": None,
    }

    @property
    def completed(self) -> bool:
        return not self.shed and not self.failed

    @property
    def outcome(self) -> str:
        """``"shed"``, ``"failed"`` or ``"completed"``."""
        return "shed" if self.shed else "failed" if self.failed else "completed"

    @property
    def latency(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.end_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        """Admission plus batch-queue wait before dispatch."""
        return self.dispatch_time - self.arrival_time

    @property
    def pending_wait(self) -> float:
        """Dispatch to execution start (staging + worker queueing)."""
        return self.start_time - self.dispatch_time

    @property
    def exec_s(self) -> float:
        return self.end_time - self.start_time


# ---------------------------------------------------------------------------
# columnar storage
# ---------------------------------------------------------------------------


class RaggedColumn(Sequence):
    """A column of int tuples stored flat.

    Row ``i`` is ``tuple(values[ends[i - 1]:ends[i]])`` (from 0 for the
    first row): two ``array('i')`` (``'q'`` once :meth:`widen`) in place
    of one tuple object per row, and both NumPy-viewable.  Indexing and
    iteration yield the tuples the records carry; outside the store the
    column is read-only.
    """

    __slots__ = ("values", "ends")

    def __init__(self) -> None:
        self.values = array("i")
        self.ends = array("i")

    def widen(self) -> bool:
        """Move both arrays to ``'q'``; False if they already were."""
        if self.ends.typecode == "q":
            return False
        self.values, self.ends = array("q", self.values), array("q", self.ends)
        return True

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        ends = self.ends
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(ends)))]
        end = ends[i]  # IndexError past either end
        if i < 0:
            i += len(ends)
        return tuple(self.values[ends[i - 1] if i else 0 : end])

    def __iter__(self):
        values = self.values
        start = 0
        for end in self.ends:
            yield tuple(values[start:end])
            start = end

    def append(self, row) -> None:
        self.values.extend(row)
        self.ends.append(len(self.values))

    def __setitem__(self, i: int, row) -> None:
        ends = self.ends
        end = ends[i]
        if i < 0:
            i += len(ends)
        start = ends[i - 1] if i else 0
        # TypeError or OverflowError before anything moves
        new = array(self.values.typecode, row)
        self.values[start:end] = new
        shift = len(new) - (end - start)
        if shift:
            for j in range(i, len(ends)):
                ends[j] += shift

    def __delitem__(self, rows: slice) -> None:
        """Drop trailing rows, ``del col[n:]`` (the store's only delete)."""
        n = rows.indices(len(self.ends))[0]
        del self.values[self.ends[n - 1] if n else 0 :]
        del self.ends[n:]


#: the distinct values each code typecode can number, and the next
#: wider typecode a :class:`CodedColumn` moves to when they run out
_CODE_LIMITS = {tc: 1 << 8 * array(tc).itemsize for tc in "BHI"}
_WIDER = {"B": "H", "H": "I", "I": "q"}
#: a coded column's index until its first append builds its own
_NO_CODES = MappingProxyType({})


class CodedColumn(Sequence):
    """A column of a handful of distinct values, dictionary-coded.

    Row ``i`` is ``values[codes[i]]``: one unsigned code per row in
    ``codes`` (``array('B')``, widened to ``'H'``, ``'I'`` and then
    ``'q'`` when the table outgrows a width), a table ``values`` of the
    distinct values and ``index`` mapping each back to its code.  The
    three are built at the first append, so a trace that records no
    task pays nothing for them; until then the class-level empties
    stand in.  Indexing and iteration yield the values themselves.
    """

    codes = ()
    values = ()
    index = _NO_CODES

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        return self.values[self.codes[i]]

    def __iter__(self):
        return map(self.values.__getitem__, self.codes)

    def code(self, value) -> int:
        """``value``'s code, entering it in the table if it is new."""
        index = self.index
        code = index.get(value)
        if code is None:
            if index is _NO_CODES:
                self.codes, self.values = array("B"), []
                index = self.index = {}
            code = len(self.values)
            typecode = self.codes.typecode
            if code == _CODE_LIMITS.get(typecode):
                self.codes = array(_WIDER[typecode], self.codes)
            index[value] = code  # an unhashable value stops here
            self.values.append(value)
        return code

    def append(self, value) -> None:
        code = self.code(value)  # may widen (replace) the code array
        self.codes.append(code)

    def __setitem__(self, i: int, value) -> None:
        code = self.code(value)
        self.codes[i] = code

    def __delitem__(self, rows: slice) -> None:
        """Drop trailing rows, ``del col[n:]`` (the store's only delete)."""
        n = rows.indices(len(self.codes))[0]
        if n < len(self.codes):
            del self.codes[n:]


def _split_name(name, sep: str = "") -> tuple | None:
    """A name ``<stem><sep><n>`` as ``((type, stem), n)``, when ``n``, the
    ASCII digits that end the name, is a decimal int that gives its
    digits back exactly; else None."""
    typ = type(name)
    if typ is str or typ is GeneratedName:
        head = name.rstrip("0123456789")
        digits = name[len(head) :]
        if (
            digits
            and head.endswith(sep)
            and len(digits) < 19  # fits an int64
            and str(int(digits)) == digits
        ):
            return (typ, head[: len(head) - len(sep)]), int(digits)
    return None


class NameColumn(Sequence):
    """A name column that keeps a name ending in a number as a stem code
    plus the number.

    A name ``<stem><n>`` (:func:`_split_name`: a handle's ``data17``, a
    served ``t0:C17``) is kept as a code into a table of ``(type,
    stem)`` plus ``n`` in ``_nums`` (``array('i')``, ``'q'`` once
    :meth:`widen`), and reads back as the same ``str`` or
    :class:`GeneratedName`; any other name is kept whole.  Each form's
    columns are built at its first name, with an empty row for every
    row before it.
    """

    __slots__ = ("_n", "_given", "_stems", "_nums")
    #: what separates a stored stem from its number
    _sep = ""

    def __init__(self) -> None:
        self._n = 0
        self._given: list | None = None
        self._stems: CodedColumn | None = None
        self._nums: array | None = None

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> str:
        name = self._kept(i)
        return self._default(i) if name is None else name

    def _kept(self, i: int):
        """Row ``i``'s name as this column keeps it; None if it keeps none."""
        name = None if self._given is None else self._given[i]
        if name is not None:
            return name
        key = None if self._stems is None else self._stems[i]
        if key is None:
            return None
        typ, stem = key
        return typ(f"{stem}{self._sep}{self._nums[i]}")

    def _default(self, i: int):
        """Row ``i``'s name when neither form holds it: a None name."""
        if not -self._n <= i < self._n:
            raise IndexError("name index out of range")
        return None

    def _whole(self, name):
        """What the given column keeps of a name that does not split."""
        return name

    def _split(self, name) -> tuple:
        """``name`` as (whole name, stem key, number), building the
        columns its form needs."""
        split = _split_name(name, self._sep) if name else None
        if split is not None:
            if self._stems is None:
                self._stems = CodedColumn()
                self._stems.code(None)
                self._stems.codes = array("B", bytes(self._n))
                self._nums = array("i", [0]) * self._n
            return (None, *split)
        whole = self._whole(name)
        if whole is not None and self._given is None:
            self._given = [None] * self._n
        return whole, None, 0

    def widen(self) -> bool:
        """Move the numbers to ``'q'``; False if they were not narrow."""
        if self._nums is None or self._nums.typecode == "q":
            return False
        self._nums = array("q", self._nums)
        return True

    def append(self, name) -> None:
        whole, key, n = self._split(name)
        if self._given is not None:
            self._given.append(whole)
        if self._stems is not None:
            self._stems.append(key)
            self._nums.append(n)
        self._n += 1

    def __setitem__(self, i: int, name) -> None:
        whole, key, n = self._split(name)
        if self._given is not None:
            self._given[i] = whole
        if self._stems is not None:
            self._stems[i] = key
            self._nums[i] = n

    def __delitem__(self, rows: slice) -> None:
        """Drop trailing rows, ``del col[n:]`` (the store's only delete)."""
        n = rows.indices(self._n)[0]
        for col in (self._given, self._stems, self._nums):
            if col is not None:
                del col[n:]
        self._n = n


class DerivedNames(NameColumn):
    """A name column that stores only the names callers gave.

    A row appended with an empty name reads back as
    ``GeneratedName(f"{prefix}#{id}")`` from the same row of the
    store's prefix and id columns (the task's codelet and id), so a
    default-named row costs nothing here.  A given name ``<stem>#<n>``
    (the serving layer's ``t0/sgemm#17``) is kept as a stem plus a
    number, as in a :class:`NameColumn`; any other given name whole.
    The siblings are read through the store's column list, which
    :func:`_widen` updates in place.
    """

    __slots__ = ("_cols", "_prefix", "_id")
    _sep = "#"

    def __init__(self, cols: list, prefix: int, ident: int) -> None:
        super().__init__()
        self._cols, self._prefix, self._id = cols, prefix, ident

    def _default(self, i: int) -> str:
        # the siblings have this column's length, so an index past
        # either end raises IndexError from them
        cols = self._cols
        return GeneratedName(f"{cols[self._prefix][i]}#{cols[self._id][i]}")

    def _whole(self, name):
        return name or None  # an empty name is derived, not kept


def _widen(cols: list) -> bool:
    """Move every narrow int column in a store's ``cols`` to ``'q'``, in
    place (an array by a new one, a ragged or name column inside);
    False if none was narrow."""
    narrow = False
    for k, col in enumerate(cols):
        if type(col) is array:
            if col.typecode in "bi":
                cols[k] = array("q", col)
                narrow = True
        elif hasattr(col, "widen"):
            narrow = col.widen() or narrow
    return narrow


@functools.cache
def _stamped_appender(cls: type) -> FunctionType:
    """The ``append_stamped`` template for one record class.

    Tuple unpack plus one bound-append call per column beats iterating
    a zip of (append, value) pairs on the per-task hot path, and the
    unpack also rejects rows of the wrong width for free.  A ragged
    field extends its flat value array and appends the new row end, so
    the engine can pass any int sequence (its id lists as built).  A
    coded field looks its value up in the column's index and appends
    the code, entering a new value through :meth:`CodedColumn.code`
    (which may replace the code array, hence the attribute read).  The
    row arrives without the trailing ``seq`` (passed separately),
    sparing one tuple concatenation per task/transfer.  Compiling the
    source costs ~0.15 ms, so it happens once per class; each store then
    binds its own columns' methods as the defaults of a copy (see
    :meth:`_ColumnStore._stamped`).
    """
    if cls._fields[-1] != "seq":
        raise ValueError(f"{cls.__name__} records carry no trailing seq")
    binds: list[str] = []
    lines: list[str] = []
    for i, name in enumerate(cls._fields[:-1]):
        if name in cls._ragged_fields:
            binds += (f"_x{i}", f"_e{i}", f"_f{i}")
            lines.append(f"_x{i}(v{i}); _e{i}(len(_f{i}))")
        elif name in cls._coded_fields:
            binds.append(f"_c{i}")
            lines += (
                f"k = _c{i}.index.get(v{i})",
                f"if k is None: k = _c{i}.code(v{i})",
                f"_c{i}.codes.append(k)",
            )
        else:
            binds.append(f"_a{i}")
            lines.append(f"_a{i}(v{i})")
    unpack = ", ".join(f"v{i}" for i in range(len(cls._fields) - 1))
    body = "".join(f"    {line}\n" for line in (f"{unpack}, = values", *lines))
    src = (
        f"def append_stamped(values, seq, {', '.join(binds)}, _seq):\n"
        f"{body}    _seq(seq)\n"
    )
    ns: dict = {}
    exec(src, ns)  # noqa: S102 - static template, no external input
    return ns["append_stamped"]


#: the memory-node fields: node ids fit one signed byte
_NODE_FIELDS = frozenset({"node", "src_node", "dst_node"})


@functools.cache
def _column_layout(cls: type) -> tuple[tuple, tuple]:
    """One column factory per field of ``cls``, in field order, and the
    (field, prefix field, id field) positions of its derived names.

    The typing rule of the module docstring, applied once per record
    class instead of once per field of every store built.  A derived
    name field gets no factory: the store builds it over its siblings.
    """
    index = cls._fields.index
    derived = tuple(
        (index(name), index(prefix), index(ident))
        for name, (prefix, ident) in cls._derived_names.items()
    )
    factories = tuple(
        functools.partial(array, "d")
        if name in cls._float_fields
        else functools.partial(array, "b" if name in _NODE_FIELDS else "i")
        if name in cls._int_fields
        else RaggedColumn
        if name in cls._ragged_fields
        else CodedColumn
        if name in cls._coded_fields
        else NameColumn
        if name in cls._name_fields
        else None
        if name in cls._derived_names
        else list
        for name in cls._fields
    )
    return factories, derived


@functools.cache
def _row_class(cls: type) -> type:
    """The write-through row of record class ``cls``.

    A row has the record's API (its properties, ``as_dict``, ``repr``),
    but each field reads and writes the store's column at the row, so
    an assignment is seen by every later read of the store; a value a
    narrow int column refuses widens the store's columns, as an append
    does.  Rows of
    one store compare equal only at the same row (identity, cheaply,
    for ``in`` and ``remove`` on lists of live rows); ``replace`` and
    pickling give a plain ``cls`` record.
    """

    def column(k: int) -> property:
        def get(row):
            return row._cols[k][row._i]

        def put(row, value):
            cols = row._cols
            try:
                cols[k][row._i] = value
            except OverflowError:
                # rows stores are never stamped: no append_stamped to rebind
                if not _widen(cols):
                    raise
                cols[k][row._i] = value

        return property(get, put)

    def __init__(self, cols: list, i: int) -> None:
        self._cols = cols
        self._i = i

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same = other._cols is self._cols
        return other._i == self._i if same else self._astuple() == other._astuple()

    def replace(self, **changes):
        return cls.make(**{**self.as_dict(), **changes})

    def __reduce__(self):
        return _restore, (cls, self._astuple())

    # the record's properties and methods, but not its slots: a row holds
    # two references, not an empty slot per field, and names ``cls`` as
    # its ``__class__``, which ``isinstance(row, cls)`` consults
    ns = {
        name: value
        for klass in reversed(cls.__mro__[:-1])
        for name, value in vars(klass).items()
        if name != "__slots__" and type(value) is not MemberDescriptorType
    }
    ns.update({name: column(k) for k, name in enumerate(cls._fields)})
    ns.update(
        __slots__=("_cols", "_i"),
        __class__=property(lambda row: cls),
        __init__=__init__,
        __eq__=__eq__,
        __hash__=None,
        replace=replace,
        __reduce__=__reduce__,
    )
    return type(cls.__name__, (), ns)


class _ColumnStore:
    """Struct-of-arrays backing for one record kind.

    One column per record field (typed per the record class's field
    sets, see the module docstring) and nothing else.  The engine's hot
    path appends raw rows (:attr:`append_stamped`) and never pays for a
    record object; every read builds a new record from the columns.
    The committed row count is the length of the last column, which
    every append fills last: a row a typed column refused part-way is
    rolled back, so the columns never disagree; one a narrow int column
    refused is written again once the store has moved to ``'q'``
    (:meth:`refused`).  A store built with ``rows=True`` reads a new
    write-through row (:func:`_row_class`) instead, for records whose
    owner still changes them after they are appended.
    """

    __slots__ = (
        "cls",
        "_fields",
        "_cols",
        "append_stamped",
        "_rows",
    )

    def __init__(
        self, cls: type, stamped: bool = False, rows: bool = False
    ) -> None:
        self.cls = cls
        self._rows = _row_class(cls) if rows else None
        self._fields = cls._fields
        factories, derived = _column_layout(cls)
        # a list: widening swaps its arrays in place, where derived names
        # and write-through rows find them
        cols = self._cols = [make() if make else None for make in factories]
        for i, prefix, ident in derived:
            cols[i] = DerivedNames(cols, prefix, ident)
        # only the engine's hot-path stores (tasks, transfers) get one
        self.append_stamped = self._stamped() if stamped else None

    def _stamped(self) -> FunctionType:
        """The store's ``append_stamped``: the class template with the
        bound methods it calls, in its argument order, as defaults."""
        binds = []
        for col in self._cols:
            if type(col) is RaggedColumn:
                binds += (col.values.extend, col.ends.append, col.values)
            elif type(col) is CodedColumn:
                binds.append(col)
            else:
                binds.append(col.append)
        tmpl = _stamped_appender(self.cls)
        return FunctionType(
            tmpl.__code__, tmpl.__globals__, tmpl.__name__, tuple(binds)
        )

    @property
    def columns(self) -> dict:
        """Field name -> its column, as stored now."""
        return dict(zip(self._fields, self._cols))

    def refused(self, exc: BaseException) -> bool:
        """Trim every column back to the committed row count after
        ``exc`` refused a row.  True if the row may be written again:
        ``exc`` is an ``OverflowError`` and the store's narrow int
        columns have just moved to ``'q'``."""
        n = len(self)
        for col in self._cols:
            del col[n:]
        if not isinstance(exc, OverflowError) or not _widen(self._cols):
            return False
        if self.append_stamped is not None:
            self.append_stamped = self._stamped()
        return True

    def __len__(self) -> int:
        return len(self._cols[-1])

    def _check(self, rec) -> None:
        if type(rec) is not self.cls and type(rec) is not self._rows:
            raise TypeError(
                f"expected {self.cls.__name__}, got {type(rec).__name__}"
            )

    def append_record(self, rec) -> None:
        self._check(rec)
        try:
            for name, col in zip(self._fields, self._cols):
                col.append(getattr(rec, name))
        except BaseException as exc:
            if not self.refused(exc):
                raise
            return self.append_record(rec)

    def _row(self, i: int) -> int:
        """``i`` as a row number; negative counts from the end."""
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("record index out of range")
        return i

    def build(self, i: int):
        """A new record object for row ``i``."""
        i = self._row(i)
        return _maker(self.cls)(*[col[i] for col in self._cols])

    def get(self, i: int):
        """Row ``i``'s record, built anew (or a new write-through row)."""
        if self._rows is not None:
            return self._rows(self._cols, self._row(i))
        return self.build(i)

    def __iter__(self):
        """Every row's record, built from one pass down the columns (not
        a lookup per field)."""
        if self._rows is not None:
            return map(self._rows, repeat(self._cols), range(len(self)))
        return map(_maker(self.cls), *self._cols)

    def _write(self, i: int, rec) -> None:
        for name, col in zip(self._fields, self._cols):
            col[i] = getattr(rec, name)

    def set(self, i: int, rec) -> None:
        self._check(rec)
        i = self._row(i)
        old = self.build(i)
        try:
            self._write(i, rec)
        except BaseException as exc:
            self._write(i, old)
            if not self.refused(exc):
                raise
            return self.set(i, rec)

    def clear(self) -> None:
        for col in self._cols:
            del col[0:]


class RecordsView(Sequence):
    """Callable sequence over one record kind.

    ``trace.tasks`` behaves like the list it used to be (``len``,
    indexing, slicing, iteration, ``append``/``extend``, item
    assignment), while ``trace.tasks()`` — the blessed iteration
    spelling — returns the view itself.  Every read builds new records
    from the columnar store.
    """

    __slots__ = ("_store",)

    def __init__(self, store: _ColumnStore) -> None:
        self._store = store

    def __call__(self) -> "RecordsView":
        return self

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, i):
        store = self._store
        if isinstance(i, slice):
            return [store.get(j) for j in range(*i.indices(len(store)))]
        return store.get(i)

    def __iter__(self):
        return iter(self._store)

    def __setitem__(self, i: int, rec) -> None:
        self._store.set(i, rec)

    def append(self, rec) -> None:
        self._store.append_record(rec)

    def extend(self, recs) -> None:
        append = self._store.append_record
        for rec in recs:
            append(rec)

    def clear(self) -> None:
        self._store.clear()

    def __eq__(self, other):
        if isinstance(other, RecordsView):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@functools.cache
def _empty_view(cls: type) -> RecordsView:
    """What a trace reads for a kind it never wrote; nothing appends to it."""
    return RecordsView(_ColumnStore(cls))


# ---------------------------------------------------------------------------
# column folds
# ---------------------------------------------------------------------------


def sum_in_order(values: np.ndarray) -> float:
    """``values`` added left to right from 0.0, as a ``+=`` loop does.

    ``np.bincount`` accumulates its weights in row order, so the sum is
    bit-identical to that loop; ``np.sum`` adds pairwise and Python's
    ``sum`` of floats compensates (3.12), so either may differ.
    """
    zeros = np.zeros(len(values), np.intp)
    # float(): with no values, bincount returns an int array
    return float(np.bincount(zeros, values, minlength=1)[0])


def _grouped(col: CodedColumn, weights: np.ndarray | None = None) -> dict:
    """Per-value row counts of a coded column, or in-order sums of
    ``weights``, keyed by value in order of first appearance."""
    codes = np.array(col.codes, dtype=np.intp)
    counts = np.bincount(codes, minlength=len(col.values))
    totals = counts if weights is None else np.bincount(codes, weights)
    # the table also keeps values no row holds any more (cleared or
    # overwritten rows), and its order is the order values first came
    present = np.flatnonzero(counts)
    first = [np.argmax(codes == c) for c in present]
    return {col.values[c]: totals[c].item() for c in present[np.argsort(first)]}


# ---------------------------------------------------------------------------
# canonical renumbering
# ---------------------------------------------------------------------------

#: what :meth:`ExecutionTrace.canonicalized` renumbers, per record kind
#: in causal tie order: (id field, its id space, whether it holds a
#: tuple of ids, the generated name made from it).  "task" and "handle"
#: ids are numbered by first appearance in causal (seq) order, "late
#: task" ids after every stamped record: they may name a task that left
#: no row (an aborted dependency, a request's task).
_RENUMBERED = {
    "tasks": (
        ("task_id", "task", False, "name"),
        ("reads", "handle", True, None),
        ("writes", "handle", True, None),
        ("deps", "late task", True, None),
    ),
    "transfers": (("handle_id", "handle", False, "handle_name"),),
    "evictions": (("handle_id", "handle", False, "handle_name"),),
    "accesses": (
        ("handle_id", "handle", False, "handle_name"),
        ("related", "handle", True, None),
    ),
    "faults": (
        ("task_id", "task", False, "task_name"),
        ("handle_id", "handle", False, "handle_name"),
    ),
    "requests": (("task_id", "late task", False, None),),
}


def _id_rows(col, many: bool):
    """Each row's ids in an id column, as a sequence (a None id: none)."""
    return col if many else [() if v is None else (v,) for v in col]


def _renumbered(col, number: dict, many: bool):
    """An id column with every id mapped through ``number`` (a ragged
    column in place); a row of ``many`` ids becomes a tuple, a None id
    stays None."""
    get = number.__getitem__
    if type(col) is array:
        return array(col.typecode, map(get, col))
    if type(col) is RaggedColumn:
        col.values = _renumbered(col.values, number, False)
        return col
    return [
        tuple(map(get, v)) if many else None if v is None else get(v)
        for v in col
    ]


def _rename(names, ids, space: str) -> None:
    """Make again, in place, every :class:`GeneratedName` ``names`` keeps
    from its row's new id in ``ids`` (``<prefix>#<new>`` for a task,
    ``data<new>`` for a handle); any other name, or one with no id,
    stays.  A derived name is not kept: it follows the renumbered id
    column by itself."""
    kept = names._kept if isinstance(names, NameColumn) else names.__getitem__
    for i, new in enumerate(ids):
        name = kept(i)
        if type(name) is GeneratedName and new is not None:
            names[i] = GeneratedName(
                f"{name.rpartition('#')[0]}#{new}"
                if space == "task"
                else f"data{new}"
            )


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------


class ExecutionTrace:
    """Accumulates task and transfer records for one runtime session.

    No longer a dataclass: record storage is columnar (see the module
    docstring) and the class carries explicit ``RECORD_KINDS`` /
    ``COUNTER_FIELDS`` / ``STATE_FIELDS`` tuples for code that used to
    introspect ``dataclasses.fields`` (trace export, replay comparison).
    """

    #: each record list attribute's record class, in the order the old
    #: dataclass declared them.  The task and transfer stores, which the
    #: engine appends to per task, are built with the trace; the others
    #: at first use, since most runs write none of them.
    RECORD_CLASSES = {
        "tasks": TaskRecord,
        "transfers": TransferRecord,
        "evictions": EvictionRecord,
        "faults": FaultRecord,
        "requests": RequestRecord,
        "accesses": AccessRecord,
    }
    RECORD_KINDS = tuple(RECORD_CLASSES)
    #: scalar/dict/set bookkeeping attributes (engine counters)
    COUNTER_FIELDS = (
        "n_submitted",
        "submitted_by_codelet",
        "decisions_by_codelet",
        "retries_by_codelet",
        "n_tasks_aborted",
        "next_seq",
        "n_task_retries",
        "n_tasks_recovered",
        "n_tasks_lost",
        "n_fallbacks",
        "n_exploration_decisions",
        "blacklisted_workers",
        "lost_workers",
    )
    #: the full comparable state, in old dataclass field order
    STATE_FIELDS = RECORD_KINDS + COUNTER_FIELDS

    def __init__(self) -> None:
        self._tasks = _ColumnStore(TaskRecord, stamped=True)
        self._transfers = _ColumnStore(TransferRecord, stamped=True)
        self.tasks = RecordsView(self._tasks)
        self.transfers = RecordsView(self._transfers)
        #: tasks accepted by ``Engine.submit`` (conservation basis:
        #: ``n_submitted == n_tasks + n_tasks_aborted``)
        self.n_submitted = 0
        #: tasks accepted per codelet name — native bookkeeping kept by
        #: the engine itself; the obs metric catalogue reads these by
        #: diffing rather than subscribing to per-task events
        self.submitted_by_codelet: dict[str, int] = {}
        #: ``Scheduler.choose`` calls per codelet name (one per placement
        #: attempt, so fault-recovery retries count again)
        self.decisions_by_codelet: dict[str, int] = {}
        #: placement attempts after a fault (attempt > 0) per codelet name
        self.retries_by_codelet: dict[str, int] = {}
        #: tasks aborted without executing (unplaceable, retries exhausted)
        self.n_tasks_aborted = 0
        #: monotone recording sequence shared by task/transfer/eviction/
        #: access/fault records — the trace's causal order
        self.next_seq = 0
        #: task-level retries the recovery layer performed (one per failed
        #: execution attempt that was rescheduled)
        self.n_task_retries = 0
        #: tasks that faulted at least once but eventually completed
        self.n_tasks_recovered = 0
        #: tasks abandoned after exhausting the retry budget
        self.n_tasks_lost = 0
        #: recovered tasks whose final placement used a different backend
        #: architecture than the first failed attempt (e.g. GPU -> CPU)
        self.n_fallbacks = 0
        #: placement decisions made while the performance model was still
        #: uncalibrated for the task (scheduler exploration / calibration
        #: phase); a warm-started run should keep this at zero
        self.n_exploration_decisions = 0
        #: workers disabled after repeated transient faults
        self.blacklisted_workers: set[int] = set()
        #: workers whose device was permanently lost
        self.lost_workers: set[int] = set()
        #: :meth:`clear` calls so far: a reader that remembers how far it
        #: has read compares this to tell a refilled trace from a grown one
        self.n_clears = 0

    def __getattr__(self, name: str):
        """Build a lazy kind's store (``_faults``) and view (``faults``)."""
        kind = name[1:] if name[:1] == "_" else name
        cls = self.RECORD_CLASSES.get(kind)
        if cls is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        store = _ColumnStore(cls)
        setattr(self, "_" + kind, store)
        setattr(self, kind, RecordsView(store))
        return getattr(self, name)

    def _view(self, kind: str) -> RecordsView:
        """``kind``'s records to read, building no store for an unwritten kind."""
        view = self.__dict__.get(kind)
        if view is None:
            return _empty_view(self.RECORD_CLASSES[kind])
        return view

    def _column(self, kind: str, field: str):
        """``kind``'s raw ``field`` column, as stored (aggregates only)."""
        return self._view(kind)._store.columns[field]

    def _array(self, kind: str, field: str) -> np.ndarray:
        """A NumPy copy of a float or int column, float64 or int64
        whatever width it is stored at (not a view: a live view would
        stop the column from growing)."""
        col = self._column(kind, field)
        return np.array(col, np.float64 if col.typecode == "d" else np.int64)

    # -- blessed column access ----------------------------------------------

    def columns(self, field: str, kind: str = "tasks"):
        """The raw column for one record field — a read-only view.

        The cheapest way to fold an aggregate over a large trace:
        for tasks and transfers, ``array('d')`` for float fields, a
        narrow int array for int fields (``'b'`` for nodes, ``'i'`` for
        the rest, ``'q'`` once a value outgrew them; see the module
        docstring), both viewable in place with ``np.frombuffer(col,
        col.typecode)``, a :class:`RaggedColumn` yielding tuples for the
        task id-tuple fields; a plain list otherwise, and for every
        field of the other kinds.  The task fields stored coded
        (``codelet``, ``variant``, ``arch``, ``worker_ids``) or as names
        (``name``, ``handle_name``) come back as a new list of the same
        values.  Do not mutate the returned column, and drop it and its
        NumPy views before the trace grows again (an array cannot resize
        while a view of it is alive, and a widening trace moves to new
        arrays).
        """
        if kind not in self.RECORD_KINDS:
            raise KeyError(
                f"unknown record kind {kind!r}; one of {self.RECORD_KINDS}"
            )
        store: _ColumnStore = self._view(kind)._store
        try:
            col = store.columns[field]
        except KeyError:
            raise KeyError(
                f"{kind} records have no field {field!r}; fields are "
                f"{store.cls._fields}"
            ) from None
        return list(col) if isinstance(col, (CodedColumn, NameColumn)) else col

    def state_dict(self) -> dict:
        """Comparable full state: record dicts plus counters.

        Sets are sorted so two equal traces compare equal; the replay
        checker diffs two of these.
        """
        doc: dict = {}
        for kind in self.RECORD_KINDS:
            doc[kind] = [rec.as_dict() for rec in self._view(kind)]
        for name in self.COUNTER_FIELDS:
            value = getattr(self, name)
            doc[name] = sorted(value) if isinstance(value, set) else value
        return doc

    # -- recording ----------------------------------------------------------

    def add_task(self, values: tuple) -> None:
        """Hot-path append: one task row, ``seq`` stamped in place.

        ``values`` holds every :class:`TaskRecord` field except the
        trailing ``seq`` in declaration order.  No record object is
        built; a read builds one from the columns.  A row a typed
        column refuses raises and leaves no trace behind, unless it
        only outgrew a narrow int column (see
        :meth:`_ColumnStore.refused`).
        """
        seq = self.next_seq
        store = self._tasks
        try:
            store.append_stamped(values, seq)
        except BaseException as exc:
            if not store.refused(exc):
                raise
            return self.add_task(values)
        self.next_seq = seq + 1

    def add_transfer(self, values: tuple) -> None:
        """Hot-path append: one transfer row, ``seq`` stamped in place."""
        seq = self.next_seq
        store = self._transfers
        try:
            store.append_stamped(values, seq)
        except BaseException as exc:
            if not store.refused(exc):
                raise
            return self.add_transfer(values)
        self.next_seq = seq + 1

    def _stamp(self, rec):
        rec = rec.replace(seq=self.next_seq)
        self.next_seq += 1
        return rec

    def record_eviction(self, rec: EvictionRecord) -> EvictionRecord:
        rec = self._stamp(rec)
        self._evictions.append_record(rec)
        return rec

    def record_fault(self, rec: FaultRecord) -> FaultRecord:
        rec = self._stamp(rec)
        self._faults.append_record(rec)
        return rec

    def record_access(self, rec: AccessRecord) -> AccessRecord:
        rec = self._stamp(rec)
        self._accesses.append_record(rec)
        return rec

    def record_request(self, rec: RequestRecord) -> RequestRecord:
        self._requests.append_record(rec)
        return rec

    # -- serving views -------------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self._view("requests"))

    @property
    def n_shed(self) -> int:
        return sum(map(bool, self._column("requests", "shed")))

    @property
    def n_failed_requests(self) -> int:
        return sum(map(bool, self._column("requests", "failed")))

    def tenants(self) -> list[str]:
        """Tenant names seen, in first-arrival order."""
        return list(dict.fromkeys(self._column("requests", "tenant")))

    def requests_for(self, tenant: str) -> list[RequestRecord]:
        """``tenant``'s requests; only the matching records are read."""
        store = self._view("requests")._store
        tenants = store.columns["tenant"]
        return [store.get(i) for i, t in enumerate(tenants) if t == tenant]

    @property
    def n_evictions(self) -> int:
        return len(self._view("evictions"))

    # -- fault views --------------------------------------------------------

    @property
    def n_faults(self) -> int:
        return len(self._view("faults"))

    @property
    def n_kernel_faults(self) -> int:
        return self._column("faults", "kind").count("kernel")

    @property
    def n_transfer_faults(self) -> int:
        return self._column("faults", "kind").count("transfer")

    @property
    def n_devices_lost(self) -> int:
        return self._column("faults", "kind").count("device_lost")

    @property
    def n_replicas_recovered(self) -> int:
        return self._column("faults", "kind").count("replica_lost")

    def faults_by_kind(self) -> dict[str, int]:
        return dict(Counter(self._column("faults", "kind")))

    def faults_by_worker(self) -> dict[int, int]:
        """Transient faults attributed to each worker (blacklist basis)."""
        workers = self._column("faults", "worker_ids")
        return dict(Counter(chain.from_iterable(workers)))

    # -- aggregate views ----------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def n_transfers(self) -> int:
        return len(self._transfers)

    def _n_direction(self, code: int) -> int:
        directions = transfer_direction(
            self._array("transfers", "src_node"),
            self._array("transfers", "dst_node"),
        )
        return int(np.count_nonzero(directions == code))

    @property
    def n_h2d(self) -> int:
        return self._n_direction(H2D)

    @property
    def n_d2h(self) -> int:
        return self._n_direction(D2H)

    @property
    def bytes_transferred(self) -> int:
        # Python ints: the total grows past int64 where NumPy would wrap
        return sum(self._column("transfers", "nbytes"))

    @property
    def makespan(self) -> float:
        """Virtual time from t = 0 to the last task or transfer end."""
        ends = np.concatenate(
            [self._array(kind, "end_time") for kind in ("tasks", "transfers")]
        )
        # fmax skips nan ends; a run that ends at or before 0 spans 0.0
        latest = float(np.fmax.reduce(ends, initial=0.0))
        return latest if latest > 0.0 else 0.0

    @property
    def total_energy_j(self) -> float:
        """Modeled execution energy over all tasks, in joules (basis of
        the ``min_energy`` optimization goal)."""
        return sum_in_order(self._array("tasks", "energy_j"))

    def energy_by_arch(self) -> dict[str, float]:
        return _grouped(
            self._column("tasks", "arch"), self._array("tasks", "energy_j")
        )

    def worker_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """One (task row, worker id) pair per worker a task occupied.

        A gang task occupies several workers and so has several slots;
        both arrays run in row order.  Busy time and
        :func:`~repro.runtime.trace_export.task_load` read this one
        expansion of the ``worker_ids`` codes.
        """
        col = self._column("tasks", "worker_ids")
        codes = np.array(col.codes, dtype=np.intp)
        sizes = np.array([len(w) for w in col.values], dtype=np.intp)
        table = np.fromiter(chain.from_iterable(col.values), np.int64)
        counts = sizes[codes]
        rows = np.repeat(np.arange(len(codes)), counts)
        # slot j of a row reads its table entry's start plus its offset
        # in the row: j minus the row's first slot
        first = np.cumsum(sizes) - sizes
        shift = np.repeat(first[codes] - (np.cumsum(counts) - counts), counts)
        return rows, table[np.arange(len(rows)) + shift]

    def busy_time(self, worker_id: int) -> float:
        """Total virtual time ``worker_id`` spent executing tasks."""
        rows, workers = self.worker_slots()
        start = self._array("tasks", "start_time")
        end = self._array("tasks", "end_time")
        return sum_in_order((end - start)[rows[workers == worker_id]])

    def utilisation(self, worker_id: int) -> float:
        """Busy fraction of the makespan for one worker."""
        span = self.makespan
        return self.busy_time(worker_id) / span if span > 0 else 0.0

    def tasks_by_arch(self) -> dict[str, int]:
        """How many tasks each backend architecture executed."""
        return _grouped(self._column("tasks", "arch"))

    def tasks_by_variant(self) -> dict[str, int]:
        return _grouped(self._column("tasks", "variant"))

    def transfers_for_handle(self, handle_id: int) -> list[TransferRecord]:
        return [t for t in self.transfers if t.handle_id == handle_id]

    def summary(self) -> str:
        """Short human-readable report."""
        by_arch = ", ".join(
            f"{arch}: {n}" for arch, n in sorted(self.tasks_by_arch().items())
        )
        text = (
            f"{self.n_tasks} tasks ({by_arch or 'none'}), "
            f"{self.n_transfers} transfers "
            f"({self.n_h2d} h2d / {self.n_d2h} d2h, "
            f"{self.bytes_transferred / 1e6:.2f} MB), "
            f"makespan {self.makespan * 1e3:.3f} ms"
        )
        if self.n_faults:
            by_kind = ", ".join(
                f"{kind}: {n}" for kind, n in sorted(self.faults_by_kind().items())
            )
            text += (
                f"; {self.n_faults} faults ({by_kind}), "
                f"{self.n_task_retries} retries, "
                f"{self.n_tasks_recovered} recovered / {self.n_tasks_lost} lost"
            )
        if self.n_requests:
            text += (
                f"; {self.n_requests} requests over {len(self.tenants())} "
                f"tenants ({self.n_shed} shed, {self.n_failed_requests} failed)"
            )
        return text

    # -- canonical form -----------------------------------------------------

    def canonicalized(self) -> "ExecutionTrace":
        """A copy with dense, first-appearance task/handle numbering.

        Task ids and handle ids come from process-global counters, so
        two identical runs in one process carry different raw ids.  The
        canonical form renumbers both by order of first appearance in
        the causal record stream — and rewrites the default names that
        embed those ids (``codelet#<id>``, ``data<id>``, each a
        :class:`GeneratedName`; a name the caller gave is kept as is) —
        so equal runs compare equal.  This is the basis of replay
        bit-identity and byte-identical canonical trace JSON.
        """
        stores = {kind: self._view(kind)._store for kind in _RENUMBERED}
        tasks: dict = {}
        numbers = {"task": tasks, "late task": tasks, "handle": {}}
        # each row's ids under its seq (late ids under +inf), stably
        # sorted: ties keep the table's kind order, then row order
        rows = []
        for kind, fields in _RENUMBERED.items():
            cols = stores[kind].columns
            for late in (False, True):
                group = [
                    (numbers[space], _id_rows(cols[field], many))
                    for field, space, many, _ in fields
                    if (space == "late task") is late
                ]
                if group:
                    spaces, ids = zip(*group)
                    seqs = repeat(math.inf) if late else cols["seq"]
                    rows += zip(seqs, repeat(spaces), zip(*ids))
        rows.sort(key=itemgetter(0))
        for _, spaces, row in rows:
            for number, ids in zip(spaces, row):
                for i in ids:
                    if i not in number:
                        number[i] = len(number)

        out = ExecutionTrace()
        for name in self.COUNTER_FIELDS:
            setattr(out, name, copy.copy(getattr(self, name)))
        for kind, fields in _RENUMBERED.items():
            src = stores[kind]
            if not len(src):
                continue
            dst = getattr(out, "_" + kind)
            cols = dst._cols = copy.deepcopy(src._cols)
            index = src.cls._fields.index
            for field, space, many, name in fields:
                k = index(field)
                cols[k] = _renumbered(cols[k], numbers[space], many)
                if name:
                    _rename(cols[index(name)], cols[k], space)
            if dst.append_stamped is not None:
                dst.append_stamped = dst._stamped()  # bound to the new columns
        return out

    def clear(self) -> None:
        self.n_clears += 1
        for kind in self.RECORD_KINDS:
            # an unwritten kind's stand-in is empty: clearing it is a no-op
            self._view(kind).clear()
        self.n_submitted = 0
        self.submitted_by_codelet.clear()
        self.decisions_by_codelet.clear()
        self.retries_by_codelet.clear()
        self.n_tasks_aborted = 0
        self.next_seq = 0
        self.n_task_retries = 0
        self.n_tasks_recovered = 0
        self.n_tasks_lost = 0
        self.n_fallbacks = 0
        self.n_exploration_decisions = 0
        self.blacklisted_workers.clear()
        self.lost_workers.clear()
