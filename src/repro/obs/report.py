"""Machine-readable run reports: spans + metrics + timeline + config as JSON.

The CLI's ``--metrics-out run.json`` lands here: after an experiment runs,
:func:`write_run_report` serializes everything the observability layer
collected — span records and per-phase aggregates from
:mod:`repro.obs.trace`, every counter and gauge from
:mod:`repro.obs.metrics`, the simulation event timeline from
:mod:`repro.obs.timeline`, tracemalloc memory peaks (when sampling was on),
and the exact experiment configuration + seed — so a perf claim ("the cache
made fig2 3x faster") is a diff of two files rather than a memory.

Schema stability: ``schema`` is bumped on breaking layout changes; tests
pin the current top-level key set.  Schema history:

* **1** — spans, span_stats, dropped_spans, metrics, config, seed, meta.
* **2** — adds ``timeline`` (events + ring drop accounting), ``memory``
  (tracemalloc peaks), and per-span ``mem_peak_kb`` inside ``spans``.
* **3** — adds ``bus`` (accounting of a live telemetry bus: frame counts
  by kind, scenarios observed).  ``meta.cpus`` and ``meta.peak_rss_mib``
  were added later, as additive keys; older schema-3 reports lack them.
* **4** — drops ``bus``: the bus is gone, and run progress is a log line
  (see :mod:`repro.runner.monte_carlo`).
* **5** — drops ``metrics.histograms``: a span's durations live in
  ``span_stats`` and its records, a store build's in its span, so
  ``metrics`` holds ``counters`` and ``gauges`` only.

:func:`load_run_report` reads any supported version, upgrading older files
to the schema-5 shape in memory (empty timeline/memory sections for
schema 1, any ``bus`` or ``metrics.histograms`` section dropped, original
version preserved under ``schema_original``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
import tracemalloc
from typing import Any, Dict, Optional

from repro.obs import metrics as _metrics
from repro.obs import timeline as _timeline
from repro.obs import trace as _trace
from repro.obs.log import get_logger

#: Bumped when the report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 5

#: Schema versions :func:`upgrade_report` knows how to read.
SUPPORTED_SCHEMAS = (1, 2, 3, 4, REPORT_SCHEMA_VERSION)

#: Top-level keys every (current-schema) report carries.
REPORT_KEYS = frozenset(
    {
        "schema",
        "command",
        "config",
        "seed",
        "spans",
        "span_stats",
        "dropped_spans",
        "timeline",
        "memory",
        "metrics",
        "meta",
    }
)

_LOG = get_logger(__name__)


def _ensure_default_instruments() -> None:
    """Import the instrumented modules so their counters exist in every report.

    Counters are registered at module import; a run that never touched the
    session engine or the market would otherwise silently omit them, and a
    reader could not tell "zero sessions" from "not measured".  Imports are
    lazy here to keep :mod:`repro.obs` free of package-level cycles.
    """
    import repro.core.market  # noqa: F401
    import repro.core.sharing  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sim.visibility  # noqa: F401


def _config_dict(config: Any) -> Optional[Dict[str, Any]]:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    return {"repr": repr(config)}


def _memory_section() -> Dict[str, Any]:
    """Tracemalloc accounting: process-level + per-span peak summary."""
    summary = _trace.TRACER.memory_summary()
    section: Dict[str, Any] = {
        "tracemalloc": tracemalloc.is_tracing(),
        "sampled_spans": int(summary["sampled_spans"] or 0),
        "span_peak_kb": summary["peak_kb"],
    }
    if tracemalloc.is_tracing():
        current_b, peak_b = tracemalloc.get_traced_memory()
        section["current_kb"] = current_b / 1024.0
        section["peak_kb"] = peak_b / 1024.0
    else:
        section["current_kb"] = None
        section["peak_kb"] = None
    return section


def _peak_rss_mib() -> Optional[float]:
    """This process's peak resident set so far (MiB); None without getrusage."""
    try:
        import resource
    except ImportError:  # pragma: no cover - not on every platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def collect_run_report(
    command: Optional[str] = None,
    config: Any = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the full run report as a JSON-ready dict.

    Logs a one-line warning when the span recorder or the timeline ring
    dropped records, so a capped trace is never mistaken for a complete one.

    Args:
        command: The CLI subcommand / experiment name, if any.
        config: The experiment configuration (a dataclass or dict); its
            ``seed`` field, when present, is surfaced at the top level.
        extra: Caller-provided additions (merged under ``"extra"``).
    """
    _ensure_default_instruments()
    config_dict = _config_dict(config)
    seed = None
    if config_dict and "seed" in config_dict:
        seed = config_dict["seed"]
    trace_snapshot = _trace.TRACER.snapshot()
    timeline_snapshot = _timeline.TIMELINE.snapshot()
    dropped_spans = trace_snapshot["dropped_records"]
    dropped_events = timeline_snapshot["dropped"]
    if dropped_spans or dropped_events:
        _LOG.warning(
            "trace truncated: %d span records and %d timeline events were "
            "dropped at their ring caps — raise repro.obs.trace.MAX_RECORDS / "
            "repro.obs.timeline.DEFAULT_CAPACITY for a complete record "
            "(aggregates are exact)",
            dropped_spans, dropped_events,
        )
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": config_dict,
        "seed": seed,
        "spans": trace_snapshot["records"],
        "span_stats": trace_snapshot["stats"],
        "dropped_spans": dropped_spans,
        "timeline": timeline_snapshot,
        "memory": _memory_section(),
        "metrics": _metrics.snapshot(),
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "created_unix": time.time(),
            "cpus": os.cpu_count(),
            "peak_rss_mib": _peak_rss_mib(),
        },
    }
    if extra:
        report["extra"] = dict(extra)
    return report


def write_run_report(
    path: str,
    command: Optional[str] = None,
    config: Any = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the run report to ``path`` and return the dict that was written."""
    report = collect_run_report(command=command, config=config, extra=extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return report


def upgrade_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a loaded report to the schema-5 shape (back-compat reader).

    Schema-1 reports gain an empty ``timeline`` and an unsampled ``memory``
    section; a schema-3 report's ``bus`` section and an older report's
    ``metrics.histograms`` are dropped.  The original version is preserved
    under ``schema_original``.  ``report`` itself is left unchanged.

    Raises:
        ValueError: On an unrecognized schema version.
    """
    schema = report.get("schema")
    if schema == REPORT_SCHEMA_VERSION:
        return report
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"unsupported run-report schema {schema!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_SCHEMAS))})"
        )
    upgraded = dict(report)
    upgraded["schema"] = REPORT_SCHEMA_VERSION
    upgraded["schema_original"] = schema
    if schema == 1:
        upgraded.setdefault(
            "timeline",
            {
                "events": [],
                "capacity": 0,
                "dropped": 0,
                "total_emitted": 0,
                "counts_by_kind": {},
            },
        )
        upgraded.setdefault(
            "memory",
            {
                "tracemalloc": False,
                "sampled_spans": 0,
                "span_peak_kb": None,
                "current_kb": None,
                "peak_kb": None,
            },
        )
    upgraded.pop("bus", None)
    if "histograms" in upgraded.get("metrics", {}):
        upgraded["metrics"] = {
            key: value
            for key, value in upgraded["metrics"].items()
            if key != "histograms"
        }
    return upgraded


def load_run_report(path: str) -> Dict[str, Any]:
    """Read a run report (any supported schema), upgraded to the current one."""
    with open(path, "r", encoding="utf-8") as handle:
        return upgrade_report(json.load(handle))


def validate_run_report(report: Dict[str, Any]) -> None:
    """Raise ValueError unless ``report`` has the current schema layout.

    Used by tests and the CI ``bench-smoke`` job to validate ``--metrics-out``
    files.  Run the dict through :func:`upgrade_report` first to accept
    older schemas.
    """
    missing = REPORT_KEYS - set(report)
    if missing:
        raise ValueError(f"run report missing keys: {sorted(missing)}")
    if report["schema"] != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"run report schema {report['schema']!r} != {REPORT_SCHEMA_VERSION}"
        )
    if not isinstance(report["spans"], list):
        raise ValueError("'spans' must be a list")
    timeline = report["timeline"]
    for key in ("events", "dropped", "capacity"):
        if key not in timeline:
            raise ValueError(f"'timeline' missing {key!r}")
    if sorted(report["metrics"]) != ["counters", "gauges"]:
        raise ValueError(
            "'metrics' must hold 'counters' and 'gauges' only, got "
            f"{sorted(report['metrics'])}"
        )
