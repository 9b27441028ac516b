"""Unified telemetry: metrics, events, spans, flight dumps, exporters.

Six layers, one import surface:

- :mod:`repro.telemetry.metrics` — the process-local
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges,
  and fixed-bucket histograms, with picklable snapshots the parallel
  trial engine merges across worker processes (order-independently);
- :mod:`repro.telemetry.events` — the bounded, sequenced
  :class:`~repro.telemetry.events.EventBus` that the trace recorder, the
  GFW device, strategies, and INTANG publish structured
  :class:`~repro.telemetry.events.TelemetryEvent` records into
  (``REPRO_TELEMETRY`` knob);
- :mod:`repro.telemetry.trace` — the hierarchical
  :class:`~repro.telemetry.trace.SpanTracer` (sweep → shard → cell/wave
  → trial/flow → phase spans, wall + sim time, ``REPRO_TRACE`` knob)
  whose drained trees merge across shards like registry deltas;
- :mod:`repro.telemetry.flight` — the anomaly
  :class:`~repro.telemetry.flight.FlightRecorder` (``REPRO_FLIGHT``
  knob): bounded event-ring + packet/TCB snapshot dumps emitted only
  when an eviction false negative, blacklist false positive, oracle
  drift, or broken verdict fires;
- :mod:`repro.telemetry.export` — Chrome/Perfetto trace-event JSON,
  OpenMetrics text exposition, and p50/p90/p99 summaries;
- :mod:`repro.telemetry.diagnose` — ``diagnose_trial()`` /
  ``diagnose_fleet_flow()``, which re-run one cell or fleet flow with
  full telemetry and render the merged packet+state timeline.

The diagnosis/trace/flight/export layers pull in heavier dependencies,
so they are exposed lazily — ``from repro.telemetry import
diagnose_trial`` works without making ``import repro.telemetry`` heavy.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    filter_snapshot,
    get_registry,
    reset_registry,
)
from repro.telemetry.events import (
    EventBus,
    TelemetryEvent,
    capturing,
    enable_bus,
    get_bus,
    reset_bus,
)

#: Lazily exposed name -> providing submodule.
_LAZY = {
    "TrialDiagnosis": "diagnose",
    "diagnose_trial": "diagnose",
    "FleetFlowDiagnosis": "diagnose",
    "diagnose_fleet_flow": "diagnose",
    "SEMANTIC_KINDS": "trace",
    "SpanTracer": "trace",
    "enable_tracer": "trace",
    "get_tracer": "trace",
    "make_span": "trace",
    "reset_tracer": "trace",
    "tracing": "trace",
    "trial_semantic": "trace",
    "FlightRecorder": "flight",
    "enable_flight": "flight",
    "get_flight": "flight",
    "reset_flight": "flight",
    "chrome_trace": "export",
    "histogram_quantile": "export",
    "latency_summary": "export",
    "openmetrics": "export",
    "write_chrome_trace": "export",
}

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "filter_snapshot",
    "get_registry",
    "reset_registry",
    "EventBus",
    "TelemetryEvent",
    "capturing",
    "enable_bus",
    "get_bus",
    "reset_bus",
] + sorted(_LAZY)


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.telemetry.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
