"""Observability: one telemetry record model (``repro.obs``).

The harness is as much bookkeeping as testing — per-run reports, bug
analyses and Titan's longitudinal tracking all depend on knowing what
happened *inside* a run.  This package supplies that layer around one
record model, ``repro.obs/v2``: a trace file (written after the run) and a
live stream (written as it runs) are two views of the same records, and
each observable fact is emitted by one call, :meth:`Tracer.event`.

* :mod:`~repro.obs.trace` — span-based tracer with deterministic IDs,
  worker marshalling (process pools), a zero-overhead null mode, and the
  one emitter: events of the :data:`LIVE_KINDS` are forwarded to the run's
  live pipeline;
* :mod:`~repro.obs.metrics` — counter/gauge/histogram primitives;
* :mod:`~repro.obs.sink` — JSONL serialization and the one reader for
  trace files and live streams alike;
* :mod:`~repro.obs.summary` — the one summary behind ``repro trace
  summarize`` and ``repro obs tail --summarize``;
* :mod:`~repro.obs.dashboard` — the standalone HTML trace/metrics
  dashboard;
* :mod:`~repro.obs.live` — live campaign telemetry: the unit-event tally,
  progress snapshots and the NDJSON stream / TTY status / Prometheus
  textfile sinks.

Tracing is opt-in: everything runs against :data:`NULL_TRACER` unless a
real :class:`Tracer` is injected (CLI ``--trace``/``--profile``).  Live
telemetry is likewise opt-in (CLI ``--live-stream``/``--status``/``--prom``)
and observational only: reports are byte-identical with it on or off.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.trace import (
    Event,
    LIVE_KINDS,
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_FORMAT,
    Tracer,
)
from repro.obs.sink import (
    TraceData,
    TraceFormatError,
    decode_line,
    parse_trace,
    read_trace,
    trace_to_jsonl,
    write_trace,
)
from repro.obs.summary import TraceSummary, render_summary_text, summarize_trace
from repro.obs.dashboard import render_trace_html
from repro.obs.live import (
    LiveTelemetry,
    NDJSONStreamSink,
    PrometheusSink,
    ProgressTally,
    SnapshotReporter,
    StatusLineSink,
    lint_prometheus,
    render_prometheus,
    render_status_line,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NULL_METRICS",
    "Event", "LIVE_KINDS", "NULL_TRACER", "NullTracer", "Span",
    "TRACE_FORMAT", "Tracer",
    "TraceData", "TraceFormatError", "decode_line", "parse_trace",
    "read_trace", "trace_to_jsonl", "write_trace",
    "TraceSummary", "render_summary_text", "summarize_trace",
    "render_trace_html",
    "LiveTelemetry", "NDJSONStreamSink", "PrometheusSink", "ProgressTally",
    "SnapshotReporter", "StatusLineSink", "lint_prometheus",
    "render_prometheus", "render_status_line",
]
