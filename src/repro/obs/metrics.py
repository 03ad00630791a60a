"""Metrics primitives: counters, gauges, histograms, and their registry.

The live observability substrate (ROADMAP: a serving stack should be
inspectable *while* it runs, not only via post-run trace scans).  Three
metric types over labelled series:

- :class:`Counter` — monotonically increasing totals;
- :class:`Gauge` — point-in-time values (queue depth, busy fraction);
- :class:`Histogram` — fixed exponential buckets, cheap to observe and
  **mergeable** across registries (shards add bucket-wise, which is what
  makes per-worker or per-process registries aggregatable).

A :class:`MetricsRegistry` owns the metrics and exposes two exposition
formats: ``to_prometheus()`` (the text format every scraper reads) and
``snapshot()`` (a JSON-able dict for programmatic checks and tests).

Everything is driven by the *virtual* clock of the simulation — there
are no background threads; values change only when engine events or
samplers touch them, so snapshots are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import PeppherError
from repro.runtime.stats import sum_in_order

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(PeppherError):
    """Misuse of the metrics API (bad name, label mismatch, ...)."""


def exponential_buckets(
    start: float = 1e-6, factor: float = 2.0, count: int = 24
) -> tuple[float, ...]:
    """Fixed exponential bucket upper bounds (seconds by default).

    The default ladder spans 1 µs to ~8.4 s in powers of two — wide
    enough for both kernel durations and end-to-end request latencies on
    the simulated machines, while keeping merges trivially aligned.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise MetricError(
            f"invalid bucket spec start={start} factor={factor} count={count}"
        )
    return tuple(start * factor**i for i in range(count))


#: the registry default for histogram bucket bounds
DEFAULT_BUCKETS = exponential_buckets()


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting (integers without the .0)."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Metric:
    """Base of all metric types: a family of labelled series.

    Hot paths that update one label set repeatedly should bind a child
    once via :meth:`labels` — the child skips label validation and key
    construction on every update (the engine observers all do this).
    """

    kind = "untyped"
    _child_cls: "type | None" = None

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple[str, ...], object] = {}
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """A bound child for one label set (validated once, then cached)."""
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child(key)
        return child

    def _make_child(self, key: tuple[str, ...]):  # pragma: no cover
        raise NotImplementedError

    # -- label handling ------------------------------------------------------

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        try:
            key = tuple(str(labels[k]) for k in self.labelnames)
        except KeyError:
            key = None
        if key is None or len(labels) != len(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return key

    def labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def series(self) -> Iterator[tuple[tuple[str, ...], object]]:
        """(label-values, state) pairs in label order, so an exposition
        does not depend on which series happened to be created first."""
        return iter(sorted(self._series.items(), key=lambda kv: kv[0]))

    def __len__(self) -> int:
        return len(self._series)

    # -- exposition hooks ----------------------------------------------------

    def _label_str(self, key: tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{n}="{_escape(v)}"' for n, v in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def expose(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def snap(self) -> list[dict]:  # pragma: no cover - overridden
        raise NotImplementedError

    def merge_from(self, other: "Metric") -> None:  # pragma: no cover
        raise NotImplementedError

    def _check_mergeable(self, other: "Metric") -> None:
        if (
            type(other) is not type(self)
            or other.labelnames != self.labelnames
        ):
            raise MetricError(
                f"cannot merge {other.kind} {other.name!r} "
                f"(labels {other.labelnames}) into {self.kind} "
                f"{self.name!r} (labels {self.labelnames})"
            )


class _CounterChild:
    """Bound counter series — ``inc`` without label handling."""

    __slots__ = ("_series", "_key", "_name")

    def __init__(self, series: dict, key: tuple[str, ...], name: str) -> None:
        self._series = series
        self._key = key
        self._name = name

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise MetricError(f"counter {self._name!r} cannot decrease")
        self._series[self._key] = self._series.get(self._key, 0.0) + value

    @property
    def value(self) -> float:
        return float(self._series.get(self._key, 0.0))


class _Scalar(Metric):
    """A family whose series each hold one float."""

    def value(self, **labels: object) -> float:
        return float(self._series.get(self._key(labels), 0.0))

    def expose(self) -> list[str]:
        return [
            f"{self.name}{self._label_str(key)} {_fmt(v)}"
            for key, v in self.series()
        ]

    def snap(self) -> list[dict]:
        return [
            {"labels": self.labels_of(key), "value": v}
            for key, v in self.series()
        ]


class Counter(_Scalar):
    """Monotonically increasing total."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def _make_child(self, key: tuple[str, ...]) -> _CounterChild:
        return _CounterChild(self._series, key, self.name)

    def merge_from(self, other: Metric) -> None:
        self._check_mergeable(other)
        for key, v in other._series.items():
            self._series[key] = self._series.get(key, 0.0) + v


class _GaugeChild:
    """Bound gauge series — ``set``/``inc``/``dec`` without label handling."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: dict, key: tuple[str, ...]) -> None:
        self._series = series
        self._key = key

    def set(self, value: float) -> None:
        self._series[self._key] = float(value)

    def inc(self, value: float = 1.0) -> None:
        self._series[self._key] = self._series.get(self._key, 0.0) + value

    def dec(self, value: float = 1.0) -> None:
        self.inc(-value)

    @property
    def value(self) -> float:
        return float(self._series.get(self._key, 0.0))


class Gauge(_Scalar):
    """Point-in-time value; ``set`` overwrites, ``inc``/``dec`` adjust."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels: object) -> None:
        self.inc(-value, **labels)

    def _make_child(self, key: tuple[str, ...]) -> _GaugeChild:
        return _GaugeChild(self._series, key)

    def merge_from(self, other: Metric) -> None:
        # gauges are last-write-wins: the merged-in registry is the
        # fresher shard by convention
        self._check_mergeable(other)
        self._series.update(other._series)


class _HistSeries:
    """Per-label-set histogram state: bucket counts, sum, count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 = overflow (+Inf)
        self.sum = 0.0
        self.count = 0


class _HistChild:
    """Bound histogram series — ``observe`` without label handling."""

    __slots__ = ("_s", "_buckets")

    def __init__(self, series: _HistSeries, buckets: tuple[float, ...]) -> None:
        self._s = series
        self._buckets = buckets

    def observe(self, value: float) -> None:
        s = self._s
        s.counts[bisect_left(self._buckets, value)] += 1
        s.sum += value
        s.count += 1

    def observe_all(self, values: np.ndarray) -> None:
        """``observe`` each of ``values`` in turn: the same buckets,
        count and sum, added in the same order, in one pass."""
        s = self._s
        bins = np.bincount(
            np.searchsorted(self._buckets, values), minlength=len(s.counts)
        )
        s.counts = [a + b for a, b in zip(s.counts, bins.tolist())]
        s.sum = sum_in_order(np.concatenate(([s.sum], values)))
        s.count += len(values)

    @property
    def count(self) -> int:
        return self._s.count

    @property
    def sum(self) -> float:
        return self._s.sum


class Histogram(Metric):
    """Fixed-bucket histogram (exponential bounds by default).

    Buckets are identical across the label sets of one metric, so two
    histograms with the same bounds merge by bucket-wise addition; a
    bounds mismatch raises instead of silently skewing quantiles.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help=help, unit=unit, labelnames=labelnames)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.buckets))
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def _make_child(self, key: tuple[str, ...]) -> _HistChild:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.buckets))
        return _HistChild(series, self.buckets)

    def count(self, **labels: object) -> int:
        s = self._series.get(self._key(labels))
        return s.count if s is not None else 0

    def sum(self, **labels: object) -> float:
        s = self._series.get(self._key(labels))
        return s.sum if s is not None else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the q-th observation); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile q must be in [0, 1], got {q}")
        s = self._series.get(self._key(labels))
        if s is None or s.count == 0:
            return float("nan")
        rank = q * s.count
        seen = 0
        for i, n in enumerate(s.counts):
            seen += n
            if seen >= rank and n:
                return (
                    self.buckets[i] if i < len(self.buckets) else math.inf
                )
        return math.inf  # pragma: no cover - defensive

    def expose(self) -> list[str]:
        lines: list[str] = []
        for key, s in self.series():
            cumulative = 0
            for bound, n in zip(self.buckets, s.counts):
                cumulative += n
                le = self._label_str(key, f'le="{_fmt(bound)}"')
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            cumulative += s.counts[-1]
            le = self._label_str(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{le} {cumulative}")
            lines.append(
                f"{self.name}_sum{self._label_str(key)} {_fmt(s.sum)}"
            )
            lines.append(
                f"{self.name}_count{self._label_str(key)} {s.count}"
            )
        return lines

    def snap(self) -> list[dict]:
        out = []
        for key, s in self.series():
            cumulative, buckets = 0, []
            for bound, n in zip(self.buckets, s.counts):
                cumulative += n
                buckets.append([bound, cumulative])
            buckets.append(["+Inf", cumulative + s.counts[-1]])
            out.append(
                {
                    "labels": self.labels_of(key),
                    "count": s.count,
                    "sum": s.sum,
                    "buckets": buckets,
                }
            )
        return out

    def merge_from(self, other: Metric) -> None:
        self._check_mergeable(other)
        assert isinstance(other, Histogram)
        if other.buckets != self.buckets:
            raise MetricError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"differ ({len(other.buckets)} vs {len(self.buckets)})"
            )
        for key, s in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                mine = self._series[key] = _HistSeries(len(self.buckets))
            for i, n in enumerate(s.counts):
                mine.counts[i] += n
            mine.sum += s.sum
            mine.count += s.count


class MetricsRegistry:
    """Named collection of metrics with exposition and merging.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object (a kind or label-set
    mismatch raises), so independent components can share one registry
    without coordination.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- creation ------------------------------------------------------------

    def _get_or_create(self, cls, name: str, kwargs: dict) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            want = tuple(kwargs.get("labelnames", ()))
            if want and tuple(want) != existing.labelnames:
                raise MetricError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, not {tuple(want)}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Counter:
        return self._get_or_create(
            Counter,
            name,
            {"help": help, "unit": unit, "labelnames": labelnames},
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._get_or_create(
            Gauge,
            name,
            {"help": help, "unit": unit, "labelnames": labelnames},
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram,
            name,
            {
                "help": help,
                "unit": unit,
                "labelnames": labelnames,
                "buckets": buckets,
            },
        )
        assert isinstance(metric, Histogram)
        if buckets is not None and tuple(buckets) != metric.buckets:
            raise MetricError(
                f"histogram {name!r} already registered with different "
                f"bucket bounds"
            )
        return metric

    # -- access --------------------------------------------------------------

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(
                f"no metric {name!r}; known: {sorted(self._metrics)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    # -- exposition ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (sorted by metric name)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if m.help:
                lines.append(f"# HELP {name} {_escape(m.help)}")
            if m.unit:
                lines.append(f"# UNIT {name} {m.unit}")
            lines.append(f"# TYPE {name} {m.kind}")
            lines.extend(m.expose())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-able snapshot: metric name -> type/help/unit/series."""
        return {
            name: {
                "type": m.kind,
                "help": m.help,
                "unit": m.unit,
                "labelnames": list(m.labelnames),
                "series": m.snap(),
            }
            for name, m in sorted(self._metrics.items())
        }

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters/histograms add, gauges
        take the other registry's (fresher) value, unknown metrics are
        adopted whole."""
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(
                        name,
                        help=theirs.help,
                        unit=theirs.unit,
                        labelnames=theirs.labelnames,
                        buckets=theirs.buckets,
                    )
                else:
                    mine = type(theirs)(
                        name,
                        help=theirs.help,
                        unit=theirs.unit,
                        labelnames=theirs.labelnames,
                    )
                self._metrics[name] = mine
            mine.merge_from(theirs)
