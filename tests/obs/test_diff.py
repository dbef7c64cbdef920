"""Tests for repro.obs.diff: run-report comparison tooling."""

import json

import pytest

from repro.obs.diff import (
    DiffRow,
    derived_ratios,
    diff_reports,
    render_diff,
    run_obs_diff,
)


def make_report(
    schema=3,
    command="fig2",
    seed=7,
    span_totals=None,
    counters=None,
    timeline=None,
    bus=None,
):
    report = {
        "schema": schema,
        "command": command,
        "config": {"seed": seed},
        "seed": seed,
        "spans": [],
        "span_stats": {
            name: {"count": 1, "total_s": total, "min_s": total, "max_s": total}
            for name, total in (span_totals or {}).items()
        },
        "dropped_spans": 0,
        "metrics": {
            "counters": dict(counters or {}),
            "gauges": {},
            "histograms": {},
        },
        "meta": {},
    }
    if schema >= 2:
        report["timeline"] = {
            "events": [], "capacity": 65536, "dropped": 0,
            "total_emitted": 0, "counts_by_kind": {},
        }
        report["timeline"].update(timeline or {})
        report["memory"] = {
            "tracemalloc": False, "sampled_spans": 0, "span_peak_kb": None,
            "current_kb": None, "peak_kb": None,
        }
    if schema >= 3:
        report["bus"] = {
            "live": False, "frames_total": 0, "frames_by_kind": {},
            "scenarios": [],
        }
        report["bus"].update(bus or {})
    return report


class TestDiffRow:
    def test_delta_and_ratio(self):
        row = DiffRow("x", 2.0, 6.0)
        assert row.delta == 4.0
        assert row.ratio == 3.0
        assert row.rel_change == 2.0

    def test_missing_side_yields_none(self):
        assert DiffRow("x", None, 1.0).delta is None
        assert DiffRow("x", 1.0, None).ratio is None
        assert DiffRow("x", 0.0, 1.0).ratio is None  # no divide-by-zero


class TestDerivedRatios:
    def test_cull_ratio_and_hit_rates(self):
        report = make_report(counters={
            "sim.visibility.culled_pairs": 75.0,
            "sim.kernels.pairs_evaluated": 25.0,
            "experiments.visibility_cache.hits": 9.0,
            "experiments.visibility_cache.misses": 1.0,
            "sim.kernels.threshold_cache.hits": 0.0,
            "sim.kernels.threshold_cache.misses": 4.0,
        })
        ratios = derived_ratios(report)
        assert ratios["cull_ratio"] == pytest.approx(0.75)
        assert ratios["visibility_cache_hit_rate"] == pytest.approx(0.9)
        assert ratios["threshold_cache_hit_rate"] == 0.0
        # Counters absent entirely -> None, not zero.
        assert ratios["pool_cache_hit_rate"] is None

    def test_zero_activity_is_none(self):
        report = make_report(counters={
            "sim.visibility.culled_pairs": 0.0,
            "sim.kernels.pairs_evaluated": 0.0,
            "experiments.geometry_cache.hits": 0.0,
            "experiments.geometry_cache.misses": 0.0,
        })
        ratios = derived_ratios(report)
        assert ratios["cull_ratio"] is None
        assert ratios["geometry_cache_hit_rate"] is None
        assert ratios["exact_recheck_ratio"] is None

    def test_exact_recheck_ratio(self):
        report = make_report(counters={
            "sim.kernels.exact_rechecks": 3.0,
            "sim.visibility.pair_samples": 30_000.0,
        })
        assert derived_ratios(report)["exact_recheck_ratio"] == pytest.approx(1e-4)


class TestDiffReports:
    def test_sections_and_rows(self):
        a = make_report(
            span_totals={"analysis.fig2": 4.0},
            counters={"runner.runs": 8.0, "only.in.a": 1.0},
            timeline={"total_emitted": 10},
        )
        b = make_report(
            span_totals={"analysis.fig2": 2.0},
            counters={"runner.runs": 8.0, "only.in.b": 2.0},
            bus={"frames_total": 5},
        )
        diff = diff_reports(a, b)
        assert diff["commands"] == ("fig2", "fig2")
        assert diff["seeds"] == (7, 7)
        [span_row] = [r for r in diff["spans"] if r.name == "analysis.fig2"]
        assert span_row.ratio == pytest.approx(0.5)
        by_name = {row.name: row for row in diff["counters"]}
        assert by_name["only.in.a"].b is None
        assert by_name["only.in.b"].a is None
        assert by_name["runner.runs"].delta == 0.0
        timeline = {row.name: row for row in diff["timeline"]}
        assert timeline["timeline.total_emitted"].a == 10.0
        bus = {row.name: row for row in diff["bus"]}
        assert bus["bus.frames_total"].b == 5.0

    def test_worker_era_bus_section_still_diffs(self):
        """Reports from before the process pool was removed carry worker
        accounting in their bus section; they still diff against new ones."""
        old = make_report(bus={
            "frames_total": 7, "workers": {"worker-1": {"frames": 7}},
            "failed_workers": [],
        })
        diff = diff_reports(old, make_report(bus={"frames_total": 3}))
        assert [row.name for row in diff["bus"]] == ["bus.frames_total"]
        assert diff["bus"][0].delta == -4.0

    def test_upgrades_older_schemas_first(self):
        """A schema-1 baseline diffs cleanly against a schema-3 run."""
        a = make_report(schema=1)
        b = make_report(schema=3, bus={"frames_total": 3})
        diff = diff_reports(a, b)
        bus = {row.name: row for row in diff["bus"]}
        assert bus["bus.frames_total"].a == 0.0
        assert bus["bus.frames_total"].b == 3.0


class TestRender:
    def test_renders_moved_rows_elides_stable_ones(self):
        a = make_report(
            span_totals={"analysis.fig2": 4.0},
            counters={"stable.counter": 100.0, "moved.counter": 10.0},
        )
        b = make_report(
            span_totals={"analysis.fig2": 2.0},
            counters={"stable.counter": 100.0, "moved.counter": 30.0},
        )
        text = render_diff(diff_reports(a, b))
        assert "analysis.fig2" in text
        assert "moved.counter" in text
        assert "x3.00" in text
        assert "stable.counter" not in text
        assert "1 more within 1%" in text

    def test_seed_mismatch_called_out(self):
        a = make_report(seed=7)
        b = make_report(seed=8)
        text = render_diff(diff_reports(a, b))
        assert "seeds differ: 7 vs 8" in text


class TestCliEntry:
    def test_run_obs_diff_loads_and_prints(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(json.dumps(make_report(
            counters={"runner.runs": 4.0})))
        path_b.write_text(json.dumps(make_report(
            schema=2, counters={"runner.runs": 8.0})))
        printed = []
        code = run_obs_diff(str(path_a), str(path_b), print_fn=printed.append)
        assert code == 0
        assert printed
        assert "runner.runs" in printed[0]
