"""Observability: transaction tracing, latency attribution, time-series.

``repro.obs`` is the layer that answers *where did the miss cycles go*:

* :class:`~repro.obs.tracer.TransactionTracer` — per-transaction spans
  with per-segment cycle attribution and state-transition logs;
* :class:`~repro.obs.timeseries.MetricsSampler` — periodic occupancy /
  queue-depth snapshots into a bounded ring buffer;
* :mod:`repro.obs.export` — Chrome-trace (Perfetto) and JSON/CSV export;
* :mod:`repro.obs.metrics` — fleet metrics (counter/gauge/histogram with
  labels, Prometheus text exposition) for the serve daemon, result store,
  parallel runner and serve client;
* :mod:`repro.obs.log` — structured JSON event logging with correlation
  ids threading client -> server -> worker.

The simulation-side instruments are opt-in: a machine built without
``trace=True`` and without a metrics interval runs byte-identically to
one predating this package.  Fleet metrics and logs never touch a
simulation.
"""

from repro.obs.span import OPS, SEGMENTS, Span
from repro.obs.tracer import TransactionTracer, render_latency_summary
from repro.obs.timeseries import MetricsRing, MetricsSampler
from repro.obs.export import (
    chrome_trace,
    spans_to_json,
    validate_trace_events,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    parse_exposition,
    sample_count,
)
from repro.obs.log import (
    correlation_id,
    correlation_scope,
    log_event,
    new_correlation_id,
)

__all__ = [
    "OPS",
    "SEGMENTS",
    "Span",
    "TransactionTracer",
    "render_latency_summary",
    "MetricsRing",
    "MetricsSampler",
    "chrome_trace",
    "spans_to_json",
    "validate_trace_events",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "parse_exposition",
    "sample_count",
    "correlation_id",
    "correlation_scope",
    "log_event",
    "new_correlation_id",
]
