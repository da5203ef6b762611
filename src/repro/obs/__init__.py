"""repro.obs — observability: tracing, metrics, phase profiling, export.

The flow stack is instrumented with hierarchical spans
(:mod:`repro.obs.trace`) and a process-wide metrics registry
(:mod:`repro.obs.metrics`); :mod:`repro.obs.profile` aggregates recorded
spans into phase-breakdown reports and :mod:`repro.obs.export` ships them
as JSONL or Chrome trace-event files (``chrome://tracing`` / Perfetto).

The contract that makes this safe to leave wired through every layer:

* tracing is **off by default** and near-free while off (the instrumented
  sites pay one global read per call);
* observation never feeds back — no span or metric value influences a
  scheduling, budgeting or binding decision, so traced results are
  byte-identical to untraced ones (pinned by the golden Table-4 metrics).

Typical use::

    from repro import obs

    with obs.tracing() as tracer:
        result = session.run(points)
    report = obs.profile_report(tracer.roots, wall_seconds=...)
    print(obs.format_profile_markdown(report))
    obs.write_chrome_trace(tracer.roots, "trace.json")

or from the CLI: ``repro profile sweep --rows 2`` and ``repro sweep
--trace-out spans.jsonl``.
"""

from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    is_enabled,
    span,
    tracing,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    cache_stats,
    counter,
    histogram,
    registry,
    snapshot,
)
from repro.obs.profile import (
    PHASE_OF,
    SpanStat,
    aggregate_spans,
    format_profile_markdown,
    phase_totals,
    profile_report,
)
from repro.obs.export import (
    chrome_trace_events,
    jsonl_to_chrome_trace,
    load_spans_jsonl,
    span_records,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    # trace
    "Span", "Tracer", "span", "is_enabled", "active_tracer", "tracing",
    # metrics
    "Counter", "Histogram", "MetricsRegistry", "registry", "counter",
    "histogram", "snapshot", "cache_stats",
    # profile
    "PHASE_OF", "SpanStat", "aggregate_spans", "phase_totals",
    "profile_report", "format_profile_markdown",
    # export
    "span_records", "write_spans_jsonl", "load_spans_jsonl",
    "chrome_trace_events", "write_chrome_trace", "jsonl_to_chrome_trace",
]
