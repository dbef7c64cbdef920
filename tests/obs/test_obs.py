"""Tests for the observability layer: metrics registry, spans, run reports."""

import json
import logging

import pytest

from repro.experiments.common import ExperimentConfig
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as obs_timeline
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, percentile_from_counts
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    collect_run_report,
    load_run_report,
    upgrade_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.trace import SPAN_SECONDS_PREFIX, Tracer, profile, track_memory


class TestCounters:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("x").inc(-1)

    def test_name_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


class TestGauges:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.add(-1.0)
        assert gauge.value == 1.5


class TestHistograms:
    def test_bucket_placement(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)   # bucket 0 (<= 1)
        histogram.observe(5.0)   # bucket 1 (<= 10)
        histogram.observe(100.0)  # overflow (+inf)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(105.5)
        assert histogram.mean == pytest.approx(105.5 / 3)

    def test_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_non_increasing_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("h", buckets=(2.0, 1.0))


class TestPercentiles:
    def test_interpolates_within_bucket(self):
        # 10 observations all land in the (1, 2] bucket: the median sits
        # halfway through it by linear interpolation.
        assert percentile_from_counts(
            (1.0, 2.0, 4.0), (0, 10, 0, 0), 50.0
        ) == pytest.approx(1.5)

    def test_first_bucket_interpolates_from_zero(self):
        assert percentile_from_counts((4.0,), (8, 0), 50.0) == pytest.approx(2.0)

    def test_spans_buckets(self):
        # 4 in (0,1], 4 in (1,2]: p25 is mid-first-bucket, p75 mid-second.
        buckets, counts = (1.0, 2.0), (4, 4, 0)
        assert percentile_from_counts(buckets, counts, 25.0) == pytest.approx(0.5)
        assert percentile_from_counts(buckets, counts, 75.0) == pytest.approx(1.5)

    def test_overflow_clamps_to_last_bound(self):
        assert percentile_from_counts((1.0, 2.0), (0, 0, 5), 99.0) == 2.0

    def test_empty_returns_zero(self):
        assert percentile_from_counts((1.0,), (0, 0), 95.0) == 0.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="\\[0, 100\\]"):
            percentile_from_counts((1.0,), (0, 0), 101.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="counts"):
            percentile_from_counts((1.0, 2.0), (1, 1), 50.0)

    def test_histogram_method_delegates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            histogram.observe(1.5)
        assert histogram.percentile(50.0) == pytest.approx(1.5)
        assert histogram.percentile(0.0) == pytest.approx(1.0)


class TestRegistry:
    def test_snapshot_layout(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7.0)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["gauges"] == {"g": 7.0}
        assert snapshot["histograms"]["h"]["counts"] == [1, 0]
        json.dumps(snapshot)  # Must be JSON-serializable as-is.

    def test_reset_zeroes_in_place(self):
        """Module-level instrument references survive a reset."""
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.snapshot()["counters"]["c"] == 1


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {record.name: record for record in tracer.records}
        assert by_name["inner"].parent == "outer"
        assert by_name["inner"].depth == 1
        assert by_name["outer"].parent is None
        assert by_name["outer"].depth == 0
        # The inner span finishes first.
        assert tracer.records[0].name == "inner"

    def test_stats_aggregate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase"):
                pass
        stats = tracer.stats()["phase"]
        assert stats["count"] == 3
        assert stats["total_s"] >= stats["max_s"] >= stats["min_s"] >= 0.0

    def test_record_cap_keeps_aggregates(self):
        tracer = Tracer(max_records=2)
        for _ in range(5):
            with tracer.span("phase"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped_records == 3
        assert tracer.stats()["phase"]["count"] == 5

    def test_timed_decorator(self):
        tracer = Tracer()

        @tracer.timed("named")
        def work():
            return 42

        assert work() == 42
        assert tracer.stats()["named"]["count"] == 1

    def test_timed_decorator_defaults_to_qualname(self):
        tracer = Tracer()

        @tracer.timed()
        def work(value):
            return value + 1

        assert work(1) == 2
        assert work.__name__ == "work"
        name = "TestSpans.test_timed_decorator_defaults_to_qualname.<locals>.work"
        assert tracer.stats()[name]["count"] == 1

    def test_module_timed_uses_the_default_tracer(self):
        obs_trace.reset()

        @obs_trace.timed("module.level")
        def work():
            return "done"

        assert work() == "done"
        assert obs_trace.stats()["module.level"]["count"] == 1
        obs_trace.reset()

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert tracer.stats()["failing"]["count"] == 1
        assert tracer._stack() == []

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        tracer.reset()
        assert tracer.records == []
        assert tracer.stats() == {}

    def test_profile_writes_pstats(self, tmp_path):
        out = tmp_path / "run.pstats"
        with profile(str(out)):
            sum(range(1000))
        assert out.exists() and out.stat().st_size > 0

    def test_profile_disabled_on_falsy_path(self):
        with profile(None):
            pass  # Must be a no-op.


class TestMemorySampling:
    def test_spans_record_peaks_under_track_memory(self):
        tracer = Tracer()
        with track_memory():
            with tracer.span("alloc"):
                buffer = bytearray(512 * 1024)
                del buffer
        record = tracer.records[0]
        assert record.mem_peak_kb is not None
        assert record.mem_peak_kb >= 512.0

    def test_nested_peak_propagates_to_parent(self):
        """An inner allocation spike must count toward the outer span."""
        tracer = Tracer()
        with track_memory():
            with tracer.span("outer"):
                with tracer.span("inner"):
                    buffer = bytearray(512 * 1024)
                    del buffer
        by_name = {record.name: record for record in tracer.records}
        assert by_name["outer"].mem_peak_kb >= by_name["inner"].mem_peak_kb

    def test_no_sampling_without_tracemalloc(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        assert tracer.records[0].mem_peak_kb is None
        assert tracer.memory_summary() == {"sampled_spans": 0.0, "peak_kb": None}

    def test_track_memory_falsy_is_noop(self):
        import tracemalloc

        with track_memory(False):
            assert not tracemalloc.is_tracing()

    def test_memory_summary_reports_max(self):
        tracer = Tracer()
        with track_memory():
            with tracer.span("a"):
                buffer = bytearray(256 * 1024)
                del buffer
            with tracer.span("b"):
                pass
        summary = tracer.memory_summary()
        assert summary["sampled_spans"] == 2.0
        assert summary["peak_kb"] >= 256.0


class TestDurationHistograms:
    def test_global_tracer_feeds_span_histograms(self):
        obs_trace.TRACER.reset()
        name = "unit.test.duration_histogram"
        with obs_trace.span(name):
            pass
        snapshot = obs_metrics.snapshot()["histograms"]
        assert snapshot[SPAN_SECONDS_PREFIX + name]["count"] >= 1

    def test_plain_tracer_does_not_observe(self):
        tracer = Tracer()
        with tracer.span("unit.test.unobserved"):
            pass
        histograms = obs_metrics.snapshot()["histograms"]
        assert SPAN_SECONDS_PREFIX + "unit.test.unobserved" not in histograms


class TestLogging:
    def test_logger_hierarchy(self):
        assert obs_log.get_logger("sim.engine").name == "repro.sim.engine"
        assert obs_log.get_logger("repro.core.market").name == "repro.core.market"
        assert obs_log.get_logger().name == "repro"

    def test_resolve_level_env(self, monkeypatch):
        monkeypatch.setenv(obs_log.ENV_VAR, "DEBUG")
        assert obs_log.resolve_level() == logging.DEBUG
        assert obs_log.resolve_level("ERROR") == logging.ERROR

    def test_resolve_level_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_log.resolve_level("LOUD")

    def test_configure_idempotent(self):
        root = obs_log.configure_logging("INFO")
        obs_log.configure_logging("DEBUG")
        handlers = [
            handler for handler in root.handlers
            if getattr(handler, "_repro_obs_handler", False)
        ]
        assert len(handlers) == 1
        assert root.level == logging.DEBUG


class TestRunReport:
    def test_round_trip_schema(self, tmp_path):
        """write -> json.load preserves the pinned top-level layout."""
        config = ExperimentConfig(runs=2, step_s=600.0, seed=11)
        path = tmp_path / "run.json"
        written = write_run_report(str(path), command="fig2", config=config)
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert set(loaded) == {
            "schema", "command", "config", "seed", "spans", "span_stats",
            "dropped_spans", "timeline", "memory", "metrics", "meta",
        }
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["command"] == "fig2"
        assert loaded["seed"] == 11
        assert loaded["config"]["step_s"] == 600.0
        assert loaded["config"]["duration_s"] == ExperimentConfig().duration_s

    def test_standard_counters_always_present(self):
        """Engine/cache/market counters appear even in runs that skip them,
        so "zero" is distinguishable from "not measured"."""
        report = collect_run_report()
        counters = report["metrics"]["counters"]
        for name in (
            "sim.engine.sessions",
            "sim.engine.allocations",
            "sim.engine.handovers",
            "experiments.visibility_cache.hits",
            "experiments.visibility_cache.misses",
            "core.market.invoices",
            "sim.visibility.pairs",
        ):
            assert name in counters

    def test_spans_land_in_report(self):
        obs_trace.TRACER.reset()
        with obs_trace.span("unit.test.phase"):
            pass
        report = collect_run_report()
        assert "unit.test.phase" in report["span_stats"]
        names = [record["name"] for record in report["spans"]]
        assert "unit.test.phase" in names
        obs_trace.TRACER.reset()

    def test_dict_config_and_extra(self, tmp_path):
        path = tmp_path / "run.json"
        report = write_run_report(
            str(path), config={"seed": 5, "knob": "a"}, extra={"note": "hi"}
        )
        assert report["seed"] == 5
        assert report["extra"] == {"note": "hi"}

    def test_timeline_and_memory_sections_present(self):
        obs_timeline.reset()
        obs_timeline.emit(obs_timeline.HANDOVER, 60.0, "terminal-1")
        report = collect_run_report()
        assert report["timeline"]["events"][-1]["kind"] == "handover"
        assert report["timeline"]["dropped"] == 0
        assert report["memory"]["tracemalloc"] is False
        obs_timeline.reset()

    def test_drop_warning_logged(self, caplog):
        obs_timeline.reset()
        small = obs_timeline.Timeline(capacity=2)
        for index in range(5):
            small.emit(obs_timeline.HANDOVER, float(index), "t")
        original = obs_timeline.TIMELINE
        obs_timeline.TIMELINE = small
        # configure_logging() stops "repro" records from propagating to the
        # root logger, which is where caplog listens.
        repro_logger = logging.getLogger("repro")
        original_propagate = repro_logger.propagate
        repro_logger.propagate = True
        try:
            with caplog.at_level(logging.WARNING, logger="repro.obs.report"):
                report = collect_run_report()
        finally:
            obs_timeline.TIMELINE = original
            repro_logger.propagate = original_propagate
        assert report["timeline"]["dropped"] == 3
        assert any("dropped" in message for message in caplog.messages)

    def test_validate_current_schema(self):
        validate_run_report(collect_run_report())

    def test_validate_rejects_missing_keys(self):
        report = collect_run_report()
        report.pop("timeline")
        with pytest.raises(ValueError, match="missing keys"):
            validate_run_report(report)

    def test_schema1_upgrade(self, tmp_path):
        legacy = {
            "schema": 1,
            "command": "fig2",
            "config": {"seed": 3},
            "seed": 3,
            "spans": [],
            "span_stats": {},
            "dropped_spans": 0,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "meta": {},
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        loaded = load_run_report(str(path))
        assert loaded["schema"] == REPORT_SCHEMA_VERSION
        assert loaded["schema_original"] == 1
        assert loaded["timeline"]["events"] == []
        assert loaded["memory"]["tracemalloc"] is False
        validate_run_report(loaded)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported run-report schema"):
            upgrade_report({"schema": 99})

    def test_global_metrics_reset_preserves_module_instruments(self):
        """obs_metrics.reset() must not orphan instrumented modules."""
        from repro.experiments import common

        obs_metrics.reset()
        common.clear_caches()
        common.starlink_pool()  # miss
        common.starlink_pool()  # hit
        counters = obs_metrics.snapshot()["counters"]
        assert counters["experiments.pool_cache.misses"] == 1
        assert counters["experiments.pool_cache.hits"] == 1
        common.clear_caches()
        obs_metrics.reset()
