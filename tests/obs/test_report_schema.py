"""Schema-3 run-report round-trip and back-compat upgrades (schemas 1, 2).

Complements tests/obs/test_obs.py's report tests with the ISSUE-6 surface:
the ``bus`` section, and ``load_run_report`` upgrades from committed
schema-1 and schema-2 fixtures.
"""

import io
import json
import os

import pytest

from repro.obs.bus import SCENARIO_STARTED, default_bus
from repro.obs.report import (
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


class TestSchema3RoundTrip:
    def test_write_load_validate(self, tmp_path):
        path = tmp_path / "run.json"
        written = write_run_report(str(path), command="fig2")
        loaded = load_run_report(str(path))
        assert loaded == written
        assert loaded["schema"] == REPORT_SCHEMA_VERSION == 3
        validate_run_report(loaded)

    def test_bus_section_reflects_default_bus(self):
        bus = default_bus()
        bus.reset()
        try:
            bus.enable_live(stream=io.StringIO())
            bus.publish(SCENARIO_STARTED, scenario="fig2", tasks=4)
            bus.disable_live()
            report = collect_run_report(command="fig2")
        finally:
            bus.reset()
        assert report["bus"]["live"] is True  # sticky past disable_live()
        assert report["bus"]["frames_total"] == 1
        assert report["bus"]["frames_by_kind"] == {SCENARIO_STARTED: 1}
        assert report["bus"]["scenarios"] == ["fig2"]

    def test_meta_records_host_cpus_and_peak_rss(self):
        first = collect_run_report(command="fig2")["meta"]
        second = collect_run_report(command="fig2")["meta"]
        assert first["cpus"] == os.cpu_count()
        # MiB, not KiB or bytes: a process with numpy loaded holds tens of
        # MiB.  A high-water mark never falls between reports.
        assert 10.0 < first["peak_rss_mib"] < 65_536.0
        assert first["peak_rss_mib"] <= second["peak_rss_mib"]

    def test_validate_rejects_gutted_bus_section(self):
        report = collect_run_report()
        report["bus"] = {"live": False}
        with pytest.raises(ValueError, match="'bus' missing"):
            validate_run_report(report)


class TestUpgrades:
    def test_schema1_gains_timeline_memory_and_bus(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(schema1_fixture()))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 1
        assert loaded["timeline"]["events"] == []
        assert loaded["memory"]["tracemalloc"] is False
        assert loaded["bus"]["live"] is False
        assert loaded["bus"]["frames_total"] == 0
        validate_run_report(loaded)

    def test_schema2_keeps_timeline_gains_bus(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(schema2_fixture()))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 2
        # The schema-2 timeline is preserved verbatim, not blanked.
        assert loaded["timeline"]["events"][0]["subject"] == "acme"
        assert loaded["bus"]["frames_by_kind"] == {}
        validate_run_report(loaded)

    def test_current_schema_passes_through_untouched(self):
        report = collect_run_report()
        assert upgrade_report(report) is report
        assert "schema_original" not in report

    def test_supported_schemas_pinned(self):
        assert SUPPORTED_SCHEMAS == (1, 2, 3)

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported run-report schema"):
            upgrade_report({"schema": 4})
