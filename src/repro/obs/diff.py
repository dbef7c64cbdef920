"""The one comparison tool: ``python -m repro obs diff A.json B.json``.

Two files of one kind in, one comparison out.  Two ``--metrics-out`` run
reports (any supported schema; :func:`repro.obs.report.upgrade_report`
runs first) give per-span wall-clock movement, counter deltas, derived
cache/cull ratios and timeline drop accounting.  Two ``coldbench/``
``result.json`` records (schema 1, recognized by their top-level
``workloads``) give, per workload, each end-to-end metric's median with
its q1-q3 spread and sample count, the ratio of the medians (marked when
the two q1-q3 ranges overlap, so the ratio is within the runs' own
spread), the layer metrics and failed out of attempted operations, plus
one warning line when ``cpus``, ``thread_env`` or ``seed`` in their
``meta`` differ.

Purely informational: no threshold, no gate; every valid pair exits 0.
Inputs that cannot be read or compared raise :class:`DiffInputError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.report import upgrade_report

#: Span rows and counter rows below this relative change are elided from
#: the rendered tables (the structured diff always carries everything).
RENDER_MIN_REL_CHANGE = 0.01

#: The ``coldbench/`` ``result.json`` schema this module reads.
RESULT_SCHEMA = 1

#: ``meta`` keys that must be equal for two results' medians to compare.
COMPARABLE_META = ("cpus", "thread_env", "seed")


class DiffInputError(ValueError):
    """An input that cannot be read, or two inputs of different kinds."""


@dataclass(frozen=True)
class DiffRow:
    """One compared quantity: values on both sides, delta, ratio."""

    name: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def ratio(self) -> Optional[float]:
        if self.a is None or self.b is None or self.a == 0.0:
            return None
        return self.b / self.a

    @property
    def rel_change(self) -> Optional[float]:
        ratio = self.ratio
        return None if ratio is None else abs(ratio - 1.0)


@dataclass(frozen=True)
class MetricRow(DiffRow):
    """A repeated end-to-end metric: medians compared, quartiles and
    sample counts carried."""

    iqr_a: Optional[Tuple[float, float]] = None
    iqr_b: Optional[Tuple[float, float]] = None
    n_a: Optional[int] = None
    n_b: Optional[int] = None

    @property
    def iqrs_overlap(self) -> Optional[bool]:
        """Whether the two q1-q3 ranges share a value (None without both).

        Overlapping ranges mean the medians' ratio is within the runs'
        own spread: no evidence of a change at these sample counts."""
        if self.iqr_a is None or self.iqr_b is None:
            return None
        return self.iqr_a[0] <= self.iqr_b[1] and self.iqr_b[0] <= self.iqr_a[1]


def _rows(
    table_a: Dict[str, float], table_b: Dict[str, float]
) -> List[DiffRow]:
    names = sorted(set(table_a) | set(table_b))
    return [DiffRow(name, table_a.get(name), table_b.get(name)) for name in names]


def _span_totals(report: Dict[str, Any]) -> Dict[str, float]:
    return {
        name: float(stats.get("total_s", 0.0))
        for name, stats in report.get("span_stats", {}).items()
    }


def _hit_rate(counters: Dict[str, float], prefix: str) -> Optional[float]:
    hits = counters.get(f"{prefix}.hits")
    misses = counters.get(f"{prefix}.misses")
    if hits is None and misses is None:
        return None
    total = (hits or 0.0) + (misses or 0.0)
    return (hits or 0.0) / total if total else None


def derived_ratios(report: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """The efficiency ratios a report implies: cull fraction, the share of
    pair-samples visible above the mask, the share the float32 screen left
    to an exact decision, cache hit rates."""
    counters = report.get("metrics", {}).get("counters", {})
    culled = counters.get("sim.visibility.culled_pairs")
    evaluated = counters.get("sim.kernels.pairs_evaluated")
    cull_ratio: Optional[float] = None
    if culled is not None and evaluated is not None:
        pairs = culled + evaluated
        cull_ratio = culled / pairs if pairs else None
    rechecks = counters.get("sim.kernels.exact_rechecks")
    samples = counters.get("sim.visibility.pair_samples")
    recheck_ratio = rechecks / samples if rechecks is not None and samples else None
    visible = counters.get("sim.visibility.pair_samples_visible")
    pass_rate = visible / samples if visible is not None and samples else None
    return {
        "cull_ratio": cull_ratio,
        "mask_pass_rate": pass_rate,
        "exact_recheck_ratio": recheck_ratio,
        "visibility_cache_hit_rate": _hit_rate(
            counters, "experiments.visibility_cache"
        ),
        "pool_cache_hit_rate": _hit_rate(counters, "experiments.pool_cache"),
        "geometry_cache_hit_rate": _hit_rate(
            counters, "experiments.geometry_cache"
        ),
        "threshold_cache_hit_rate": _hit_rate(
            counters, "sim.kernels.threshold_cache"
        ),
    }


def diff_reports(
    report_a: Dict[str, Any], report_b: Dict[str, Any]
) -> Dict[str, Any]:
    """Structured comparison of two (upgraded) run reports."""
    report_a = upgrade_report(report_a)
    report_b = upgrade_report(report_b)
    counters_a = report_a.get("metrics", {}).get("counters", {})
    counters_b = report_b.get("metrics", {}).get("counters", {})
    timeline_a = report_a.get("timeline", {})
    timeline_b = report_b.get("timeline", {})
    ratios_a = derived_ratios(report_a)
    ratios_b = derived_ratios(report_b)
    return {
        "commands": (report_a.get("command"), report_b.get("command")),
        "seeds": (report_a.get("seed"), report_b.get("seed")),
        "spans": _rows(_span_totals(report_a), _span_totals(report_b)),
        "counters": _rows(counters_a, counters_b),
        "ratios": [
            DiffRow(name, ratios_a.get(name), ratios_b.get(name))
            for name in sorted(ratios_a)
        ],
        "timeline": [
            DiffRow(
                f"timeline.{key}",
                float(timeline_a.get(key, 0) or 0),
                float(timeline_b.get(key, 0) or 0),
            )
            for key in ("total_emitted", "dropped", "capacity")
        ],
    }


def _format(value: Optional[float], places: int = 3) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if abs(value) < 10.0**-places:  # Fixed point would print a zero.
        return f"{value:.{places}g}"
    return f"{value:.{places}f}"


def _render_rows(
    title: str,
    rows: List[DiffRow],
    lines: List[str],
    min_rel_change: Optional[float] = None,
) -> None:
    shown = rows
    if min_rel_change is not None:
        shown = [
            row
            for row in rows
            if row.a is None
            or row.b is None
            or (row.rel_change or 0.0) >= min_rel_change
            or (row.a == 0.0) != (row.b == 0.0)
        ]
    elided = len(rows) - len(shown)
    if not shown and not rows:
        return
    lines.append(title)
    if not shown:
        lines.append(f"  (all {len(rows)} within {min_rel_change:.0%})")
        return
    width = max(len(row.name) for row in shown)
    for row in shown:
        ratio = f"  x{row.ratio:.2f}" if row.ratio is not None else ""
        lines.append(
            f"  {row.name.ljust(width)}  {_format(row.a):>14} -> "
            f"{_format(row.b):>14}{ratio}"
        )
    if elided > 0 and min_rel_change is not None:
        lines.append(f"  ... {elided} more within {min_rel_change:.0%}")


def render_diff(diff: Dict[str, Any]) -> str:
    """A human-readable multi-section diff table."""
    lines: List[str] = []
    command_a, command_b = diff["commands"]
    lines.append(f"run diff: {command_a or '?'} vs {command_b or '?'}")
    seed_a, seed_b = diff["seeds"]
    if seed_a != seed_b:
        lines.append(f"  seeds differ: {seed_a} vs {seed_b}")
    _render_rows(
        "spans (total_s):", diff["spans"], lines,
        min_rel_change=RENDER_MIN_REL_CHANGE,
    )
    _render_rows(
        "counters:", diff["counters"], lines,
        min_rel_change=RENDER_MIN_REL_CHANGE,
    )
    _render_rows("derived ratios:", diff["ratios"], lines)
    _render_rows("timeline:", diff["timeline"], lines)
    return "\n".join(lines)


def load_document(path: str) -> Dict[str, Any]:
    """Read a ``result.json`` record as written, or a run report upgraded
    to the current schema.

    Raises:
        DiffInputError: Naming ``path``, when it cannot be read, is not a
            JSON object, or has an unsupported schema.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise DiffInputError(f"cannot read {path}: {error.strerror or error}") from error
    except ValueError as error:
        raise DiffInputError(f"{path} is not JSON: {error}") from error
    try:
        if not isinstance(document, dict):
            raise ValueError("not a JSON object")
        if "workloads" not in document:
            return upgrade_report(document)
        if document.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported result schema {document.get('schema')!r} "
                f"(supported: {RESULT_SCHEMA})"
            )
        return document
    except ValueError as error:
        raise DiffInputError(f"{path}: {error}") from error


def _union(*groups: Iterable[str]) -> List[str]:
    """Keys of every group in first-seen (document) order."""
    return list(dict.fromkeys(key for group in groups for key in group))


def _metric_stats(
    stats: Optional[Dict[str, Any]],
) -> Tuple[Optional[float], Optional[Tuple[float, float]], Optional[int]]:
    """(median, (q1, q3), n) of one metric; None for what it lacks."""
    if stats is None:
        return None, None, None
    iqr = None
    if "q1" in stats and "q3" in stats:
        iqr = (float(stats["q1"]), float(stats["q3"]))
    n = stats.get("n")
    return float(stats["median"]), iqr, None if n is None else int(n)


def _workload_diff(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's rows; ``{}`` stands for the record that lacks it."""
    metrics_a, metrics_b = a.get("metrics", {}), b.get("metrics", {})
    layers_a, layers_b = a.get("layers", {}), b.get("layers", {})
    metric_rows = []
    for name in _union(metrics_a, metrics_b):
        median_a, iqr_a, n_a = _metric_stats(metrics_a.get(name))
        median_b, iqr_b, n_b = _metric_stats(metrics_b.get(name))
        metric_rows.append(
            MetricRow(name, median_a, median_b, iqr_a, iqr_b, n_a, n_b)
        )
    return {
        "only_in": None if a and b else ("A" if a else "B"),
        "metrics": metric_rows,
        "layers": [
            DiffRow(
                name,
                *(layers[name]["value"] if name in layers else None
                  for layers in (layers_a, layers_b)),
            )
            for name in _union(layers_a, layers_b)
        ],
        "ops": tuple(
            (side["ops"]["failed"], side["ops"]["attempted"]) if side else None
            for side in (a, b)
        ),
    }


def diff_results(
    result_a: Dict[str, Any], result_b: Dict[str, Any]
) -> Dict[str, Any]:
    """Structured comparison of two ``result.json`` records.  Every
    workload of either record is listed, ``None`` on the side lacking it."""
    meta_a, meta_b = result_a.get("meta", {}), result_b.get("meta", {})
    workloads_a, workloads_b = result_a["workloads"], result_b["workloads"]
    return {
        "heads": (meta_a.get("git_head"), meta_b.get("git_head")),
        "meta_mismatches": [
            (key, meta_a.get(key), meta_b.get(key))
            for key in COMPARABLE_META
            if meta_a.get(key) != meta_b.get(key)
        ],
        "workloads": {
            name: _workload_diff(workloads_a.get(name, {}), workloads_b.get(name, {}))
            for name in _union(workloads_a, workloads_b)
        },
    }


def _meta_value(value: Any) -> str:
    if isinstance(value, dict):
        return ",".join(f"{key}={value[key]}" for key in sorted(value))
    return str(value)


def _format_metric(
    median: Optional[float], iqr: Optional[Tuple[float, float]], n: Optional[int]
) -> str:
    if median is None:
        return "-"
    text = _format(median)
    if iqr is not None:
        text += f" [{_format(iqr[0])}-{_format(iqr[1])}]"
    return text if n is None else f"{text} n={n}"


def _format_ratio(row: MetricRow) -> str:
    if row.ratio is None:
        return ""
    overlap = " (q1-q3 overlap)" if row.iqrs_overlap else ""
    return f"  x{row.ratio:.2f}{overlap}"


def render_result_diff(diff: Dict[str, Any]) -> str:
    """A human-readable per-workload diff of two ``result.json`` records."""
    head_a, head_b = ((head or "?")[:12] for head in diff["heads"])
    lines = [f"coldbench diff: {head_a} vs {head_b}"]
    if diff["meta_mismatches"]:
        differences = "; ".join(
            f"{key} {_meta_value(a)} vs {_meta_value(b)}"
            for key, a, b in diff["meta_mismatches"]
        )
        lines.append(f"  warning: medians not comparable, meta differs: {differences}")
    for name, workload in diff["workloads"].items():
        only_in = workload["only_in"]
        lines.append(f"workload {name}" + (f" (only in {only_in}):" if only_in else ":"))
        cells = [
            (
                row.name,
                _format_metric(row.a, row.iqr_a, row.n_a),
                _format_metric(row.b, row.iqr_b, row.n_b),
                _format_ratio(row),
            )
            for row in workload["metrics"]
        ]
        if cells:
            lines.append("  metrics (median [q1-q3] n=samples):")
            widths = [max(len(cell[i]) for cell in cells) for i in range(3)]
            for metric, a, b, ratio in cells:
                lines.append(
                    f"    {metric.ljust(widths[0])}  {a.rjust(widths[1])} -> "
                    f"{b.rjust(widths[2])}{ratio}"
                )
        layer_lines: List[str] = []
        _render_rows("layers:", workload["layers"], layer_lines)
        lines.extend("  " + line for line in layer_lines)
        ops = ["-" if side is None else "%d/%d" % side for side in workload["ops"]]
        lines.append(f"  ops failed: {ops[0]} -> {ops[1]}")
    return "\n".join(lines)


def run_obs_diff(
    path_a: str,
    path_b: str,
    print_fn: Callable[[str], None] = print,
) -> int:
    """CLI entry: load, diff, render.  Always returns 0 (informational).

    Raises:
        DiffInputError: A file cannot be read (see :func:`load_document`),
            or one is a run report and the other a ``result.json`` record.
    """
    document_a, document_b = load_document(path_a), load_document(path_b)
    if ("workloads" in document_a) != ("workloads" in document_b):
        result = path_a if "workloads" in document_a else path_b
        raise DiffInputError(
            f"cannot diff a coldbench result ({result}) against a run report"
        )
    if "workloads" in document_a:
        print_fn(render_result_diff(diff_results(document_a, document_b)))
    else:
        print_fn(render_diff(diff_reports(document_a, document_b)))
    return 0


__all__: Tuple[str, ...] = (
    "DiffInputError",
    "DiffRow",
    "MetricRow",
    "derived_ratios",
    "diff_reports",
    "diff_results",
    "load_document",
    "render_diff",
    "render_result_diff",
    "run_obs_diff",
)
