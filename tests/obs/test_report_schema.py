"""Schema-5 run-report round-trip and back-compat upgrades (schemas 1-4).

Complements tests/obs/test_obs.py's report tests: ``load_run_report``
upgrades schema-1 to -4 fixtures; a schema-3 ``bus`` section and an older
``metrics.histograms`` section are dropped on load.
"""

import json
import os

import pytest

from repro.obs.diff import diff_reports, load_document, render_diff
from repro.obs.report import (
    REPORT_KEYS,
    REPORT_SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    collect_run_report,
    load_run_report,
    upgrade_report,
    validate_run_report,
    write_run_report,
)


def schema1_fixture():
    return {
        "schema": 1,
        "command": "fig2",
        "config": {"seed": 3},
        "seed": 3,
        "spans": [],
        "span_stats": {"analysis.fig2": {"count": 1, "total_s": 2.0,
                                         "min_s": 2.0, "max_s": 2.0}},
        "dropped_spans": 0,
        "metrics": {"counters": {"runner.runs": 4.0}, "gauges": {},
                    "histograms": {}},
        "meta": {"python": "3.11.0"},
    }


def schema2_fixture():
    fixture = schema1_fixture()
    fixture["schema"] = 2
    fixture["timeline"] = {
        "events": [{"t_s": 0.0, "kind": "party.join", "subject": "acme"}],
        "capacity": 65536,
        "dropped": 0,
        "total_emitted": 1,
        "counts_by_kind": {"party.join": 1},
    }
    fixture["memory"] = {
        "tracemalloc": False, "sampled_spans": 0, "span_peak_kb": None,
        "current_kb": None, "peak_kb": None,
    }
    return fixture


def schema3_fixture():
    """A schema-3 report as the CLI wrote it, ``bus`` section included."""
    fixture = schema2_fixture()
    fixture["schema"] = 3
    fixture["bus"] = {
        "live": True,
        "frames_total": 26,
        "frames_by_kind": {"run.finished": 12, "run.started": 12,
                           "scenario.finished": 1, "scenario.started": 1},
        "scenarios": ["fig2"],
    }
    fixture["meta"].update({"cpus": 2, "peak_rss_mib": 71.0})
    return fixture


def schema4_fixture():
    """A schema-4 report as the CLI wrote it: no ``bus``, span-duration and
    store-build histograms under ``metrics``."""
    fixture = schema3_fixture()
    fixture["schema"] = 4
    del fixture["bus"]
    fixture["metrics"]["gauges"] = {
        "experiments.visibility_cache.last_build_s": 0.9,
        "sim.engine.capacity_saturation_peak": 0.0,
    }
    fixture["metrics"]["histograms"] = {
        "trace.span_seconds.analysis.fig2": {
            "buckets": [1.0, 5.0], "counts": [0, 1, 0], "sum": 2.0,
            "count": 1,
        },
    }
    return fixture


class TestSchema5RoundTrip:
    def test_write_load_validate(self, tmp_path):
        path = tmp_path / "run.json"
        written = write_run_report(str(path), command="fig2")
        loaded = load_run_report(str(path))
        assert loaded == written
        assert loaded["schema"] == REPORT_SCHEMA_VERSION == 5
        validate_run_report(loaded)

    def test_metrics_hold_counters_and_gauges_only(self):
        assert set(collect_run_report(command="fig2")["metrics"]) == {
            "counters", "gauges",
        }

    def test_validate_rejects_a_histograms_section(self):
        report = collect_run_report(command="fig2")
        report["metrics"]["histograms"] = {}
        with pytest.raises(ValueError, match="'counters' and 'gauges' only"):
            validate_run_report(report)

    def test_report_has_no_bus_section(self):
        assert "bus" not in collect_run_report(command="fig2")

    def test_meta_records_host_cpus_and_peak_rss(self):
        first = collect_run_report(command="fig2")["meta"]
        second = collect_run_report(command="fig2")["meta"]
        assert first["cpus"] == os.cpu_count()
        # MiB, not KiB or bytes: a process with numpy loaded holds tens of
        # MiB.  A high-water mark never falls between reports.
        assert 10.0 < first["peak_rss_mib"] < 65_536.0
        assert first["peak_rss_mib"] <= second["peak_rss_mib"]

    @pytest.mark.parametrize("key", sorted(REPORT_KEYS))
    def test_every_pinned_key_is_required(self, key):
        report = collect_run_report(command="fig2")
        del report[key]
        with pytest.raises(ValueError, match=f"missing keys: \\['{key}'\\]"):
            validate_run_report(report)

    def test_validate_rejects_an_older_schema(self):
        report = collect_run_report()
        report["schema"] = 4
        with pytest.raises(ValueError, match="schema 4 != 5"):
            validate_run_report(report)

    def test_validate_rejects_spans_that_are_not_a_list(self):
        report = collect_run_report()
        report["spans"] = {}
        with pytest.raises(ValueError, match="'spans' must be a list"):
            validate_run_report(report)

    @pytest.mark.parametrize("key", ["events", "dropped", "capacity"])
    def test_validate_requires_the_timeline_accounting(self, key):
        report = collect_run_report()
        del report["timeline"][key]
        with pytest.raises(ValueError, match=f"'timeline' missing '{key}'"):
            validate_run_report(report)

    def test_validate_rejects_metrics_without_gauges(self):
        report = collect_run_report()
        del report["metrics"]["gauges"]
        with pytest.raises(ValueError, match="'counters' and 'gauges' only"):
            validate_run_report(report)

    @pytest.mark.parametrize(
        "section, value, message",
        [
            pytest.param("span_stats", [], "'span_stats' must map", id="span-stats-list"),
            pytest.param(
                "span_stats", {"a": {"total_s": "2"}}, "'span_stats' must map",
                id="span-total-string",
            ),
            pytest.param(
                "timeline", [], "'timeline' must be an object", id="timeline-list"
            ),
            pytest.param(
                "metrics", {"counters": {}, "gauges": {"g": "x"}},
                "'metrics.gauges' must map", id="gauge-string",
            ),
            pytest.param(
                "metrics", {"counters": [], "gauges": {}},
                "'metrics.counters' must map", id="counters-list",
            ),
        ],
    )
    def test_validate_rejects_a_section_of_the_wrong_type(
        self, section, value, message
    ):
        report = collect_run_report()
        report[section] = value
        with pytest.raises(ValueError, match=message):
            validate_run_report(report)

    @pytest.mark.parametrize("key", ["dropped", "capacity", "total_emitted"])
    def test_validate_rejects_a_timeline_count_that_is_not_a_number(self, key):
        report = collect_run_report()
        report["timeline"][key] = "many"
        with pytest.raises(ValueError, match="'timeline' counts must be numbers"):
            validate_run_report(report)

    def test_validate_accepts_a_report_without_spans_or_instruments(self):
        report = collect_run_report()
        report["span_stats"] = {"a": {"count": 1}}
        report["metrics"] = {"counters": {}, "gauges": {}}
        del report["timeline"]["total_emitted"]
        validate_run_report(report)

    def test_written_file_is_the_returned_report(self, tmp_path):
        path = tmp_path / "run.json"
        written = write_run_report(str(path), command="fig3")
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.loads(text) == written

    def test_config_without_a_seed_leaves_seed_empty(self):
        report = collect_run_report(config={"knob": 1})
        assert report["config"] == {"knob": 1}
        assert report["seed"] is None
        assert "extra" not in report

    def test_config_and_extra_are_copied(self):
        config = {"seed": 2}
        extra = {"note": "a"}
        report = collect_run_report(config=config, extra=extra)
        report["config"]["seed"] = 9
        report["extra"]["note"] = "b"
        assert config == {"seed": 2}
        assert extra == {"note": "a"}


class TestUpgrades:
    def test_schema1_gains_timeline_and_memory(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(schema1_fixture()))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 1
        assert loaded["timeline"]["events"] == []
        assert loaded["memory"]["tracemalloc"] is False
        assert "bus" not in loaded
        validate_run_report(loaded)

    def test_schema2_keeps_its_timeline(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(schema2_fixture()))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 2
        # The schema-2 timeline is preserved verbatim, not blanked.
        assert loaded["timeline"]["events"][0]["subject"] == "acme"
        assert "bus" not in loaded
        validate_run_report(loaded)

    def test_schema3_drops_its_bus_section(self, tmp_path):
        path = tmp_path / "v3.json"
        path.write_text(json.dumps(schema3_fixture()))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 3
        assert "bus" not in loaded
        assert loaded["meta"]["peak_rss_mib"] == 71.0
        validate_run_report(loaded)

    def test_schema4_drops_its_histograms(self, tmp_path):
        path = tmp_path / "v4.json"
        path.write_text(json.dumps(schema4_fixture()))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 4
        assert set(loaded["metrics"]) == {"counters", "gauges"}
        assert loaded["metrics"]["counters"] == {"runner.runs": 4.0}
        validate_run_report(loaded)

    @pytest.mark.parametrize(
        "fixture",
        [schema1_fixture, schema2_fixture, schema3_fixture, schema4_fixture],
        ids=["schema1", "schema2", "schema3", "schema4"],
    )
    def test_every_older_schema_upgrades_to_a_valid_report(self, fixture):
        original = fixture()
        upgraded = upgrade_report(original)
        assert upgraded["schema_original"] == original["schema"]
        assert set(upgraded) == REPORT_KEYS | {"schema_original"}
        validate_run_report(upgraded)

    def test_upgrade_leaves_the_loaded_dict_alone(self):
        fixture = schema3_fixture()
        upgrade_report(fixture)
        assert fixture["schema"] == 3
        assert "bus" in fixture

    def test_upgrade_leaves_a_schema4_metrics_section_alone(self):
        fixture = schema4_fixture()
        snapshot = json.loads(json.dumps(fixture))
        upgraded = upgrade_report(fixture)
        assert "histograms" not in upgraded["metrics"]
        assert fixture == snapshot
        assert "histograms" in fixture["metrics"]
    def test_upgrade_leaves_a_malformed_metrics_section_to_validation(self):
        fixture = schema4_fixture()
        fixture["metrics"] = 3
        upgraded = upgrade_report(fixture)
        assert upgraded["metrics"] == 3
        with pytest.raises(ValueError, match="'metrics' must hold"):
            validate_run_report(upgraded)

    def test_current_schema_passes_through_untouched(self):
        report = collect_run_report()
        assert upgrade_report(report) is report
        assert "schema_original" not in report

    def test_supported_schemas_pinned(self):
        assert SUPPORTED_SCHEMAS == (1, 2, 3, 4, 5)

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported run-report schema"):
            upgrade_report({"schema": 6})


class TestDiffAcrossSchemas:
    def test_schema3_report_with_bus_diffs_against_schema5(self, tmp_path):
        """An old report's bus section neither breaks loading nor shows up
        as a diff row."""
        old = tmp_path / "v3.json"
        old.write_text(json.dumps(schema3_fixture()))
        new = tmp_path / "v5.json"
        write_run_report(str(new), command="fig2", config={"seed": 3})
        diff = diff_reports(load_document(str(old)), load_document(str(new)))
        assert "bus" not in diff
        text = render_diff(diff)
        assert text.startswith("run diff: fig2 vs fig2")
        assert "bus" not in text
        assert "timeline:" in text

    def test_obs_diff_cli_takes_a_schema3_and_a_schema5_report(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        old = tmp_path / "v3.json"
        old.write_text(json.dumps(schema3_fixture()))
        new = tmp_path / "v5.json"
        write_run_report(str(new), command="fig2", config={"seed": 3})
        assert main(["obs", "diff", str(old), str(new)]) == 0
        assert main(["obs", "diff", str(new), str(old)]) == 0
        out = capsys.readouterr().out
        assert out.count("run diff: fig2 vs fig2") == 2
        assert "bus" not in out

    def test_schema4_report_with_histograms_diffs_against_schema5(
        self, tmp_path, capsys
    ):
        """An old report's histograms neither break loading nor show up in
        the diff; its counters still line up with the new report's."""
        from repro.cli import main

        old = tmp_path / "v4.json"
        old.write_text(json.dumps(schema4_fixture()))
        new = tmp_path / "v5.json"
        write_run_report(str(new), command="fig2", config={"seed": 3})
        diff = diff_reports(load_document(str(old)), load_document(str(new)))
        [runs] = [row for row in diff["counters"] if row.name == "runner.runs"]
        assert runs.a == 4.0
        assert main(["obs", "diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("run diff: fig2 vs fig2")
        assert "span_seconds" not in out
