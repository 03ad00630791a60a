"""Live observability: metrics, span tracing, engine samplers.

The obs layer makes a running composition inspectable *while* it runs
(the post-run views live in :class:`~repro.runtime.stats
.ExecutionTrace`): a :class:`MetricsRegistry` of counters/gauges/
histograms with Prometheus-text and JSON exposition, a
:class:`SpanTracer` reconstructing nested ``invoke → schedule-wait →
transfer → kernel`` spans per component invocation, and
:class:`EngineSamplers` polling queue depth / worker busy state /
container residency / backlog at a fixed virtual-time period.  All three
consume the engine's typed :class:`~repro.runtime.events.EngineEvents`
stream; :class:`MetricsSuite` bundles them behind ``Runtime(metrics=
True)`` (and so ``Session`` and ``CompositionServer``).

See ``docs/OBSERVABILITY.md`` for the metric catalogue and guidance.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.samplers import DEFAULT_PERIOD_S, EngineSamplers, SamplePoint
from repro.obs.spans import Span, SpanTracer
from repro.obs.suite import MetricsSuite

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_PERIOD_S",
    "EngineSamplers",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsSuite",
    "SamplePoint",
    "Span",
    "SpanTracer",
    "exponential_buckets",
]
