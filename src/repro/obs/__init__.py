"""repro.obs — the observability layer: logging, metrics, traces, timeline.

Seven stdlib-only pieces, threaded through every package of the simulator:

* :mod:`repro.obs.log` — run-scoped structured logging under the
  ``repro.*`` hierarchy (``--log-level`` / ``REPRO_LOG``).
* :mod:`repro.obs.metrics` — a process-local registry of counters and
  gauges.
* :mod:`repro.obs.trace` — nestable span timers (``with span("x"):``) with
  one aggregate per span name, tracemalloc memory sampling
  (``--track-memory``), and a cProfile hook (``--profile``).
* :mod:`repro.obs.timeline` — the ring-buffered *simulation* event
  timeline: contacts, handovers, allocation grants/denies, saturation,
  coverage gaps, party joins, spare-capacity trades.
* :mod:`repro.obs.export` — Chrome trace-event JSON export
  (``--trace-out``): spans + timeline as Perfetto-loadable tracks.
* :mod:`repro.obs.report` — the JSON run-report writer (``--metrics-out``)
  serializing spans, metrics, timeline, memory, config, and seed.
* :mod:`repro.obs.diff` — the one comparison tool
  (``python -m repro obs diff A.json B.json``): two run reports, or two
  ``coldbench/`` ``result.json`` records.
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import REGISTRY, MetricsRegistry, counter, gauge
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    collect_run_report,
    load_run_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.timeline import TIMELINE, Timeline, TimelineEvent
from repro.obs.trace import TRACER, Tracer, profile, span, track_memory

__all__ = [
    "configure_logging",
    "get_logger",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "Tracer",
    "TRACER",
    "span",
    "profile",
    "track_memory",
    "Timeline",
    "TimelineEvent",
    "TIMELINE",
    "REPORT_SCHEMA_VERSION",
    "collect_run_report",
    "load_run_report",
    "validate_run_report",
    "write_run_report",
]
