"""Unified telemetry: tracing, metrics and exporters.

The observability layer has three parts, all zero-dependency:

* :mod:`repro.obs.trace` — a :class:`Tracer` producing nested spans into
  a bounded thread-safe ring buffer, with explicit cross-thread
  parentage and grafting of worker-process timings;
* :mod:`repro.obs.metrics` — mergeable log-bucketed histograms and a
  :class:`MetricsRegistry` that adopts every existing subsystem counter
  family into one atomic :class:`EngineSnapshot`;
* :mod:`repro.obs.export` — JSON and Prometheus-text exporters plus
  trace dumps, and :mod:`repro.obs.logs` — structured JSON logging over
  the stdlib (off by default).

The contract throughout is **observation only**: telemetry never feeds
back into any engine decision, and with tracing disabled every
instrumentation site costs a single ``is None`` branch
(:func:`repro.obs.trace.maybe_span`).  The engine oracle
(``tests/test_engine_fuzz.py``) runs every execution mode traced against
the untraced reference to prove results, reports, adaptive state and
on-disk bytes stay bit-identical.
"""

from repro.obs.export import (
    snapshot_to_json,
    snapshot_to_prometheus,
    spans_to_json,
    write_trace,
)
from repro.obs.logs import JsonLogFormatter, configure_json_logging
from repro.obs.metrics import (
    EngineSnapshot,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer, maybe_span

__all__ = [
    "EngineSnapshot",
    "Histogram",
    "HistogramSummary",
    "JsonLogFormatter",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "configure_json_logging",
    "maybe_span",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "spans_to_json",
    "write_trace",
]
