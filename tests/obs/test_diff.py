"""Tests for repro.obs.diff: run-report comparison tooling."""

import json

import pytest

from repro.obs.diff import (
    DiffInputError,
    DiffRow,
    derived_ratios,
    diff_reports,
    diff_results,
    load_document,
    render_diff,
    render_result_diff,
    run_obs_diff,
)


def make_report(
    schema=5,
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
        "metrics": {"counters": dict(counters or {}), "gauges": {}},
        "meta": {},
    }
    if schema <= 4:
        report["metrics"]["histograms"] = {
            "trace.span_seconds.analysis.fig2": {
                "buckets": [1.0], "counts": [0, 1], "sum": 2.0, "count": 1,
            },
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
    if schema == 3:
        report["bus"] = {
            "live": False, "frames_total": 0, "frames_by_kind": {},
            "scenarios": [],
        }
        report["bus"].update(bus or {})
    return report


THREAD_ENV = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}


def make_workload(wall_s, analysis_s=1.0, failed=0, import_s=0.25):
    def stats(median):
        return {
            "unit": "s", "samples": [median * 0.9, median, median * 1.2],
            "n": 3, "median": median, "q1": median * 0.9, "q3": median * 1.2,
            "min": median * 0.9, "max": median * 1.2,
        }

    return {
        "spec": {},
        "metrics": {"wall_s": stats(wall_s), "analysis_s": stats(analysis_s)},
        "ops": {
            "attempted": 16, "failed": failed, "failures": [],
            "ops_failed_frac": failed / 16,
        },
        "reference": "committed",
        "layers": {
            "setup.import_s": {"value": import_s, "unit": "s"},
            "sim.store.queries": {"value": 201, "unit": "count"},
        },
    }


def make_result(workloads, cpus=2, seed=2024, thread_env=None):
    """A ``coldbench/`` ``result.json`` document, schema 1."""
    return {
        "schema": 1,
        "meta": {
            "cpus": cpus, "python": "3.11.7", "numpy": "2.0",
            "platform": "Linux", "thread_env": dict(thread_env or THREAD_ENV),
            "git_head": "0123456789abcdef", "seed": seed, "repeats": 3,
            "seconds": 0.0, "created_unix": 0.0,
        },
        "workloads": workloads,
    }


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
        assert ratios["mask_pass_rate"] is None

    def test_mask_pass_rate(self):
        report = make_report(counters={
            "sim.visibility.pair_samples": 400.0,
            "sim.visibility.pair_samples_visible": 30.0,
        })
        assert derived_ratios(report)["mask_pass_rate"] == pytest.approx(0.075)

    @pytest.mark.parametrize(
        "counters",
        [
            {},
            {"sim.visibility.pair_samples": 0.0,
             "sim.visibility.pair_samples_visible": 0.0},
            {"sim.visibility.pair_samples": 10.0},
        ],
        ids=["absent", "no-samples", "no-visible-counter"],
    )
    def test_mask_pass_rate_is_none_without_samples(self, counters):
        assert derived_ratios(make_report(counters=counters))[
            "mask_pass_rate"
        ] is None

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
        assert set(diff) == {
            "commands", "seeds", "spans", "counters", "ratios", "timeline",
        }

    def test_worker_era_bus_section_still_diffs(self):
        """Schema-3 reports from before the process pool was removed carry
        worker accounting in their bus section; they still diff against
        new ones, and the section is dropped."""
        old = make_report(schema=3, bus={
            "frames_total": 7, "workers": {"worker-1": {"frames": 7}},
            "failed_workers": [],
        })
        diff = diff_reports(old, make_report(counters={"runner.runs": 8.0}))
        assert "bus" not in diff
        [runs] = diff["counters"]
        assert (runs.a, runs.b) == (None, 8.0)

    @pytest.mark.parametrize("schema_b", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("schema_a", [1, 2, 3, 4, 5])
    def test_every_pair_of_supported_schemas_diffs(self, schema_a, schema_b):
        a = make_report(schema=schema_a, counters={"runner.runs": 4.0})
        b = make_report(schema=schema_b, counters={"runner.runs": 8.0})
        diff = diff_reports(a, b)
        assert "bus" not in diff
        [runs] = diff["counters"]
        assert runs.ratio == pytest.approx(2.0)
        assert "bus" not in render_diff(diff)

    def test_upgrades_older_schemas_first(self):
        """A schema-1 baseline diffs cleanly against a schema-5 run."""
        a = make_report(schema=1)
        b = make_report(timeline={"total_emitted": 3})
        diff = diff_reports(a, b)
        timeline = {row.name: row for row in diff["timeline"]}
        assert timeline["timeline.total_emitted"].a == 0.0
        assert timeline["timeline.total_emitted"].b == 3.0


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

    def test_all_stable_rows_collapse_to_one_line(self):
        counters = {"runner.runs": 8.0, "sim.store.queries": 201.0}
        lines = render_diff(
            diff_reports(make_report(counters=counters), make_report(counters=counters))
        ).splitlines()
        index = lines.index("counters:")
        assert lines[index + 1] == "  (all 2 within 1%)"

    def test_zero_to_nonzero_row_is_shown_without_ratio(self):
        """A counter leaving zero has no ratio but is never elided; one
        staying at zero is."""
        a = make_report(counters={"obs.spans_dropped": 0.0, "still.zero": 0.0})
        b = make_report(counters={"obs.spans_dropped": 5.0, "still.zero": 0.0})
        lines = render_diff(diff_reports(a, b)).splitlines()
        [row] = [line for line in lines if "obs.spans_dropped" in line]
        assert row.split() == ["obs.spans_dropped", "0", "->", "5"]
        assert not any("still.zero" in line for line in lines)

    @pytest.mark.parametrize(
        "total, shown",
        [(8.0, "8"), (2.5, "2.500"), (3.49e-5, "3.49e-05")],
        ids=["integral", "fixed", "tiny"],
    )
    def test_values_keep_their_significant_digits(self, total, shown):
        """Integral values print bare; values that fixed point would print
        as 0.000 switch to significant digits."""
        text = render_diff(diff_reports(
            make_report(span_totals={"analysis.fig2": total}),
            make_report(span_totals={"analysis.fig2": 2 * total}),
        ))
        [row] = [line for line in text.splitlines() if "analysis.fig2" in line]
        assert row.split()[1] == shown
        assert row.endswith("x2.00")


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


class TestResultDiff:
    def test_rows_and_ratios(self):
        a = make_result({"mc-paper": make_workload(2.0, analysis_s=1.0)})
        b = make_result({"mc-paper": make_workload(1.0, analysis_s=1.5, failed=1)})
        diff = diff_results(a, b)
        assert diff["meta_mismatches"] == []
        workload = diff["workloads"]["mc-paper"]
        assert workload["only_in"] is None
        wall, analysis = workload["metrics"]
        assert (wall.name, wall.a, wall.b) == ("wall_s", 2.0, 1.0)
        assert wall.ratio == pytest.approx(0.5)
        assert wall.iqr_a == pytest.approx((1.8, 2.4))
        assert analysis.ratio == pytest.approx(1.5)
        layers = {row.name: row for row in workload["layers"]}
        assert layers["sim.store.queries"].ratio == 1.0
        assert workload["ops"] == ((0, 16), (1, 16))

        text = render_result_diff(diff)
        lines = text.splitlines()
        assert lines[0] == "coldbench diff: 0123456789ab vs 0123456789ab"
        assert "warning" not in text
        assert "workload mc-paper:" in lines
        [wall_line] = [line for line in lines if "wall_s" in line]
        assert wall_line.split() == [
            "wall_s", "2", "[1.800-2.400]", "n=3", "->", "1", "[0.900-1.200]",
            "n=3", "x0.50",
        ]
        [analysis_line] = [line for line in lines if "analysis_s" in line]
        assert analysis_line.endswith("x1.50")
        assert "  layers:" in lines
        assert any("setup.import_s" in line for line in lines)
        assert "  ops failed: 0/16 -> 1/16" in lines

    @pytest.mark.parametrize(
        "changed, shown",
        [
            ({"cpus": 4}, "cpus 2 vs 4"),
            ({"seed": 7}, "seed 2024 vs 7"),
            (
                {"thread_env": {"OMP_NUM_THREADS": "1"}},
                "thread_env OMP_NUM_THREADS=2,OPENBLAS_NUM_THREADS=2 vs "
                "OMP_NUM_THREADS=1",
            ),
        ],
        ids=["cpus", "seed", "thread_env"],
    )
    def test_meta_mismatch_warns_once(self, changed, shown):
        workloads = {"mc-paper": make_workload(1.0)}
        text = render_result_diff(
            diff_results(make_result(workloads), make_result(workloads, **changed))
        )
        [warning] = [line for line in text.splitlines() if "warning" in line]
        assert "not comparable" in warning
        assert shown in warning

    def test_every_differing_meta_key_in_one_warning(self):
        workloads = {"mc-paper": make_workload(1.0)}
        text = render_result_diff(diff_results(
            make_result(workloads), make_result(workloads, cpus=4, seed=7)
        ))
        [warning] = [line for line in text.splitlines() if "warning" in line]
        assert "cpus 2 vs 4; seed 2024 vs 7" in warning

    def test_missing_meta_is_tolerated(self):
        """A record without ``meta`` still diffs; its unknown host counts
        as a difference, and its head shows as ``?``."""
        workloads = {"mc-paper": make_workload(1.0)}
        a = make_result(workloads)
        del a["meta"]
        text = render_result_diff(diff_results(a, make_result(workloads)))
        lines = text.splitlines()
        assert lines[0] == "coldbench diff: ? vs 0123456789ab"
        [warning] = [line for line in lines if "warning" in line]
        assert "cpus None vs 2" in warning
        assert "seed None vs 2024" in warning

    def test_one_sided_metric_and_layer_rows(self):
        """Within a shared workload a metric or layer on one side only is
        listed with ``-`` on the other and no ratio."""
        a = make_workload(1.0)
        b = make_workload(1.0)
        del b["metrics"]["analysis_s"]
        b["layers"]["sim.store.mib"] = {"value": 3.3, "unit": "MiB"}
        diff = diff_results(make_result({"mc-paper": a}), make_result({"mc-paper": b}))
        workload = diff["workloads"]["mc-paper"]
        analysis = {row.name: row for row in workload["metrics"]}["analysis_s"]
        assert (analysis.a, analysis.b, analysis.iqr_b) == (1.0, None, None)
        assert analysis.ratio is None
        store = {row.name: row for row in workload["layers"]}["sim.store.mib"]
        assert (store.a, store.b) == (None, 3.3)
        lines = render_result_diff(diff).splitlines()
        [analysis_line] = [line for line in lines if "analysis_s" in line]
        assert analysis_line.split()[-2:] == ["->", "-"]
        [store_line] = [line for line in lines if "sim.store.mib" in line]
        assert store_line.split() == ["sim.store.mib", "-", "->", "3.300"]

    def test_overlapping_quartiles_are_marked(self):
        """Medians x1.10 apart whose q1-q3 ranges overlap: the row says so,
        and carries each side's sample count."""
        a = make_workload(1.0)
        b = make_workload(1.1)
        b["metrics"]["wall_s"]["n"] = 12
        diff = diff_results(make_result({"mc-paper": a}), make_result({"mc-paper": b}))
        wall = diff["workloads"]["mc-paper"]["metrics"][0]
        assert (wall.n_a, wall.n_b) == (3, 12)
        assert wall.iqrs_overlap is True
        [wall_line] = [
            line for line in render_result_diff(diff).splitlines() if "wall_s" in line
        ]
        assert wall_line.split()[3] == "n=3"
        assert wall_line.split()[7] == "n=12"
        assert wall_line.endswith("x1.10 (q1-q3 overlap)")

    def test_disjoint_quartiles_are_not_marked(self):
        diff = diff_results(
            make_result({"mc-paper": make_workload(1.0)}),
            make_result({"mc-paper": make_workload(2.0)}),
        )
        wall = diff["workloads"]["mc-paper"]["metrics"][0]
        assert wall.iqrs_overlap is False  # [0.9-1.2] vs [1.8-2.4]
        [wall_line] = [
            line for line in render_result_diff(diff).splitlines() if "wall_s" in line
        ]
        assert wall_line.endswith("x2.00")

    def test_record_without_quartiles(self):
        """Stats with a median only: no range, no count, no overlap mark,
        and the ratio still shows."""
        a = make_workload(1.0)
        a["metrics"]["wall_s"] = {"unit": "s", "median": 1.0}
        diff = diff_results(
            make_result({"mc-paper": a}), make_result({"mc-paper": make_workload(1.05)})
        )
        wall = diff["workloads"]["mc-paper"]["metrics"][0]
        assert (wall.iqr_a, wall.n_a) == (None, None)
        assert wall.iqrs_overlap is None
        [wall_line] = [
            line for line in render_result_diff(diff).splitlines() if "wall_s" in line
        ]
        assert wall_line.split() == [
            "wall_s", "1", "->", "1.050", "[0.945-1.260]", "n=3", "x1.05",
        ]

    def test_zero_median_base_has_no_ratio(self):
        a = make_result({"mc-paper": make_workload(1.0, import_s=0.0)})
        b = make_result({"mc-paper": make_workload(1.0, import_s=0.25)})
        lines = render_result_diff(diff_results(a, b)).splitlines()
        [import_line] = [line for line in lines if "setup.import_s" in line]
        assert import_line.split() == ["setup.import_s", "0", "->", "0.250"]

    def test_other_meta_differences_do_not_warn(self):
        workloads = {"mc-paper": make_workload(1.0)}
        b = make_result(workloads)
        b["meta"].update(git_head="fedcba", created_unix=99.0, python="3.12")
        assert "warning" not in render_result_diff(
            diff_results(make_result(workloads), b)
        )

    def test_one_sided_workloads_are_listed(self):
        shared = make_workload(1.0)
        a = make_result({"mc-paper": shared, "cold-grid": make_workload(2.0)})
        b = make_result({"mc-paper": shared, "build-fine": make_workload(3.0)})
        diff = diff_results(a, b)
        assert list(diff["workloads"]) == ["mc-paper", "cold-grid", "build-fine"]
        assert diff["workloads"]["cold-grid"]["only_in"] == "A"
        wall = diff["workloads"]["cold-grid"]["metrics"][0]
        assert (wall.name, wall.a, wall.b, wall.ratio) == ("wall_s", 2.0, None, None)
        assert diff["workloads"]["build-fine"]["ops"] == (None, (0, 16))
        text = render_result_diff(diff)
        assert "workload cold-grid (only in A):" in text
        assert "workload build-fine (only in B):" in text
        assert "  ops failed: - -> 0/16" in text

    def test_run_obs_diff_exits_zero(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(json.dumps(make_result({"mc-paper": make_workload(1.0)})))
        path_b.write_text(
            json.dumps(make_result({"mc-paper": make_workload(1.1)}, cpus=1))
        )
        printed = []
        assert run_obs_diff(str(path_a), str(path_b), print_fn=printed.append) == 0
        assert "coldbench diff:" in printed[0]
        assert "cpus 2 vs 1" in printed[0]


class TestLoadDocument:
    def test_result_is_returned_as_written(self, tmp_path):
        path = tmp_path / "result.json"
        document = make_result({"mc-paper": make_workload(1.0)})
        path.write_text(json.dumps(document))
        assert load_document(str(path)) == document

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "not a JSON object"),
            ('{"schema": 2, "workloads": {}}', "unsupported result schema 2"),
            ("not json", "is not JSON"),
            ('{"command": "fig2"}', "unsupported run-report schema None"),
        ],
        ids=["array", "result-schema", "not-json", "report-schema"],
    )
    def test_unsupported_documents_raise(self, tmp_path, text, message):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(DiffInputError, match=message):
            load_document(str(path))

    def test_missing_file_raises_naming_it(self, tmp_path):
        path = str(tmp_path / "nope.json")
        with pytest.raises(DiffInputError, match="cannot read") as exc_info:
            load_document(path)
        assert path in str(exc_info.value)

    def test_older_run_report_is_upgraded(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(make_report(schema=1)))
        document = load_document(str(path))
        assert document["schema"] == 5
        assert document["schema_original"] == 1
        assert "bus" not in document
        assert document["timeline"]["dropped"] == 0

    @pytest.mark.parametrize("result_first", [True, False], ids=["A", "B"])
    def test_report_against_result_raises_naming_the_result(
        self, tmp_path, result_first
    ):
        result = tmp_path / "result.json"
        result.write_text(json.dumps(make_result({"mc-paper": make_workload(1.0)})))
        report = tmp_path / "report.json"
        report.write_text(json.dumps(make_report()))
        paths = [str(result), str(report)]
        if not result_first:
            paths.reverse()
        with pytest.raises(DiffInputError, match="cannot diff") as exc_info:
            run_obs_diff(*paths, print_fn=lambda text: None)
        assert f"({result})" in str(exc_info.value)
