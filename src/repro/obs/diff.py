"""Run-report diff tooling: ``python -m repro obs diff A.json B.json``.

Two ``--metrics-out`` files in, one comparison out: per-span wall-clock
movement, counter deltas, derived cache/cull ratios, and timeline drop
accounting — so "the cache made fig2 3x faster" is a rendered table over
two committed artifacts instead of a memory.  Reports of any supported
schema are accepted (:func:`repro.obs.report.upgrade_report` runs first),
so a schema-2 baseline diffs cleanly against a schema-3 run.

Purely informational: unlike ``bench-compare`` (the perf gate), ``obs
diff`` always exits 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.report import load_run_report, upgrade_report

#: Span rows and counter rows below this relative change are elided from
#: the rendered tables (the structured diff always carries everything).
RENDER_MIN_REL_CHANGE = 0.01


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
    pair-samples the float32 screen left to an exact decision, cache hit
    rates."""
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
    return {
        "cull_ratio": cull_ratio,
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
    report_a = upgrade_report(dict(report_a))
    report_b = upgrade_report(dict(report_b))
    counters_a = report_a.get("metrics", {}).get("counters", {})
    counters_b = report_b.get("metrics", {}).get("counters", {})
    timeline_a = report_a.get("timeline", {})
    timeline_b = report_b.get("timeline", {})
    bus_a = report_a.get("bus", {})
    bus_b = report_b.get("bus", {})
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
        "bus": [
            DiffRow(
                "bus.frames_total",
                float(bus_a.get("frames_total", 0) or 0),
                float(bus_b.get("frames_total", 0) or 0),
            ),
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
    _render_rows("bus:", diff["bus"], lines)
    return "\n".join(lines)


def run_obs_diff(
    path_a: str,
    path_b: str,
    print_fn: Callable[[str], None] = print,
) -> int:
    """CLI entry: load, diff, render.  Always exits 0 (informational)."""
    diff = diff_reports(load_run_report(path_a), load_run_report(path_b))
    print_fn(render_diff(diff))
    return 0


__all__: Tuple[str, ...] = (
    "DiffRow",
    "derived_ratios",
    "diff_reports",
    "render_diff",
    "run_obs_diff",
)
