"""Cluster-level metrics on the live observability layer.

Exposes the cluster router's control plane through the ``repro.obs``
metrics registry, so the same scrape/export path that serves per-node
engine metrics also exposes the distributed-systems signals: failovers,
hedges, suppressed duplicates, per-node membership/suspicion state and
the brown-out gate.  Pass ``metrics=True`` (or a :class:`ClusterMetrics`
wrapping a shared registry) to :class:`~repro.cluster.router.Cluster`.

The catalogue (see ``docs/OBSERVABILITY.md``):

===================================  ===============  =========
metric                               labels           type
===================================  ===============  =========
cluster_requests_total               tenant, outcome  counter
cluster_failovers_total              tenant           counter
cluster_retries_total                tenant           counter
cluster_hedges_total                 tenant           counter
cluster_duplicates_suppressed_total  tenant           counter
cluster_request_latency_seconds      tenant           histogram
cluster_node_state                   node             gauge
cluster_brownout_active              —                gauge
===================================  ===============  =========

Every metric but one is a :class:`~repro.obs.suite.Fold` over the
columns of the cluster's :class:`~repro.cluster.records.ClusterTrace`,
run on read (:meth:`ClusterMetrics.collect`, which ``snapshot`` and
``to_prometheus`` call), as the engine catalogue is.  The node-state
gauge is the last detector verdict (``suspect``, ``dead`` or ``alive``
event) of each node: every change of the router's belief is one of
these events, since a dead node's suspicion falls only when a heartbeat
lands, which takes it straight back to alive.  The brown-out gauge is
the last ``brownout_on``/``brownout_off`` event.  The exception is
``cluster_retries_total``: it counts the retries the router *scheduled*,
and a failover whose retry budget is spent schedules none, which no
recorded column tells apart, so the router increments it as it
schedules one.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.suite import Fold, Rows, among, fold_rows, fold_unread, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.records import ClusterTrace


def _event_value(values: dict):
    """Each event row's value in ``values``, by its kind."""

    def value(rows: Rows) -> np.ndarray:
        codes, table = rows.labels("kind")
        return np.array([values.get(v, np.nan) for v in table])[codes]

    return value


#: detector verdict -> node-state gauge value
_STATE_VALUE = {"alive": 0.0, "suspect": 1.0, "dead": 2.0}
_BROWNOUT_VALUE = {"brownout_off": 0.0, "brownout_on": 1.0}
_TENANT = {"tenant": "tenant"}

#: attribute -> the fold behind it
CLUSTER_FOLDS = {
    "requests": Fold(
        "cluster_requests_total", "counter",
        "finalized requests by tenant and outcome", "",
        "requests", {"tenant": "tenant", "outcome": "outcome"}),
    "failovers": Fold(
        "cluster_failovers_total", "counter",
        "requests rerouted off a node declared dead", "",
        "events", _TENANT, where=among("kind", "failover")),
    "hedges": Fold(
        "cluster_hedges_total", "counter",
        "latency hedges dispatched to a second replica", "",
        "events", _TENANT, where=among("kind", "hedge")),
    "duplicates": Fold(
        "cluster_duplicates_suppressed_total", "counter",
        "completions suppressed by the exactly-once gate", "",
        "events", _TENANT, where=among("kind", "duplicate")),
    "latency": Fold(
        "cluster_request_latency_seconds", "histogram",
        "end-to-end latency of completed requests", "s",
        "requests", _TENANT,
        lambda rows: rows.array("end_time") - rows.array("arrival_time"),
        among("outcome", "completed")),
    "node_state": Fold(
        "cluster_node_state", "gauge",
        "believed node state (0 alive, 1 suspect, 2 dead)", "",
        "events", {"node": "node"}, _event_value(_STATE_VALUE),
        among("kind", *_STATE_VALUE)),
    "brownout": Fold(
        "cluster_brownout_active", "gauge",
        "1 while the cluster sheds its lowest priority class", "",
        "events", {}, _event_value(_BROWNOUT_VALUE),
        among("kind", *_BROWNOUT_VALUE)),
}


class ClusterMetrics:
    """The cluster router's metric surface, folded from its trace."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()
        self._folds = []
        for attr, f in CLUSTER_FOLDS.items():
            metric = register(self.registry, f)
            setattr(self, attr, metric)
            self._folds.append((f.source, partial(fold_rows, metric, f)))
        self.retries = self.registry.counter(
            "cluster_retries_total",
            help="cluster-level retry dispatches scheduled",
            labelnames=("tenant",),
        )
        self.trace: "ClusterTrace | None" = None
        #: rows of each record kind already folded
        self._read: dict[str, int] = {}

    def attach(self, trace: "ClusterTrace") -> "ClusterMetrics":
        """Fold ``trace`` from now on (a cluster attaches its own); what
        an earlier trace gave stays counted."""
        self.collect()
        self.trace, self._read = trace, {}
        return self

    def collect(self) -> None:
        """Fold the trace's rows unread since the last read into the
        registry.  :meth:`snapshot` and :meth:`to_prometheus` call it;
        call it yourself before reading a metric directly mid-run."""
        if self.trace is not None:
            fold_unread(self.trace, self._folds, self._read)

    def snapshot(self) -> dict:
        """JSON-able snapshot of every cluster metric."""
        self.collect()
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        self.collect()
        return self.registry.to_prometheus()
