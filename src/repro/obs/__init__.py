"""repro.obs — zero-overhead-when-disabled observability.

Two halves:

* :mod:`repro.obs.trace` — the :class:`Tracer` protocol, trace events,
  the :class:`TraceSink` base and its sinks (collecting / JSONL /
  ring-buffer / tee), canonical JSONL encoding with stable digests, and
  event filtering.
* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms in a
  :class:`MetricsRegistry`, plus :class:`PeriodicSampler` driven by
  simulated time.

The default state is *off*: no tracer installed, no registry created,
and every instrumented call site pays exactly one ``is not None``
branch (``tests/test_perf_proxies.py`` pins zero ``record``/``emit``
calls and the exact call count of an untraced run).  See ``docs/OBSERVABILITY.md``
for the tracepoint catalogue.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicSampler,
    empty_snapshot,
)
from .trace import (
    CollectingTracer,
    JsonlTraceSink,
    RingBufferTracer,
    TeeTracer,
    TraceEvent,
    Tracer,
    TraceSink,
    active_tracer,
    event_to_json,
    events_to_jsonl,
    filter_events,
    install_tracer,
    kind_matches,
    read_jsonl,
    trace_digest,
    tracing,
    write_jsonl,
)

__all__ = [
    "Tracer",
    "TraceEvent",
    "TraceSink",
    "CollectingTracer",
    "JsonlTraceSink",
    "RingBufferTracer",
    "TeeTracer",
    "active_tracer",
    "install_tracer",
    "tracing",
    "event_to_json",
    "events_to_jsonl",
    "trace_digest",
    "read_jsonl",
    "write_jsonl",
    "filter_events",
    "kind_matches",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicSampler",
    "empty_snapshot",
]
