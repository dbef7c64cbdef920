"""Tests for the observability layer: metrics registry, spans, run reports."""

import json
import logging

import pytest

from repro.experiments.common import ExperimentConfig
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as obs_timeline
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    collect_run_report,
    load_run_report,
    upgrade_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.trace import Tracer, profile, track_memory


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

    def test_counter_takes_zero_and_fractional_amounts(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(0)
        counter.inc(0.25)
        assert counter.value == 0.25

    def test_name_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


class TestGauges:
    def test_set_stores_a_float(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        assert gauge.value == 3.0
        assert isinstance(gauge.value, float)

    def test_gauge_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.gauge("g") is registry.gauge("g")

    def test_gauge_name_blocks_a_counter(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        with pytest.raises(ValueError, match="already registered as a gauge"):
            registry.counter("g")


class TestRegistry:
    def test_snapshot_layout(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7.0)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {"c": 3}, "gauges": {"g": 7.0}}
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

    def test_reset_zeroes_gauges_in_place(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(4.0)
        registry.reset()
        assert gauge.value == 0.0
        gauge.set(2.0)
        assert registry.snapshot()["gauges"] == {"g": 2.0}

    def test_snapshot_is_sorted_by_name(self):
        registry = MetricsRegistry()
        for name in ("b", "c", "a"):
            registry.counter(name)
            registry.gauge(f"g.{name}")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b", "c"]
        assert list(snapshot["gauges"]) == ["g.a", "g.b", "g.c"]

    def test_concurrent_get_or_create_yields_one_instrument(self):
        import threading

        registry = MetricsRegistry()
        barrier = threading.Barrier(4)
        seen = []

        def grab():
            barrier.wait()
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(seen) == 4
        assert all(instrument is seen[0] for instrument in seen)

    def test_module_helpers_use_the_default_registry(self):
        # Names the simulator already registers, so the shared registry
        # gains no instrument a real run would not have.
        counter_name = "sim.engine.sessions"
        gauge_name = "sim.engine.capacity_saturation_peak"
        assert obs_metrics.counter(counter_name) is (
            obs_metrics.REGISTRY.counter(counter_name)
        )
        assert obs_metrics.gauge(gauge_name) is (
            obs_metrics.REGISTRY.gauge(gauge_name)
        )


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

    def test_span_open_across_a_reset_still_records(self):
        """reset() forgets finished spans; an active one keeps running."""
        tracer = Tracer()
        with tracer.span("phase"):
            tracer.reset()
        assert [record.name for record in tracer.records] == ["phase"]
        assert tracer.stats()["phase"]["count"] == 1

    def test_default_record_cap_is_the_module_constant(self):
        assert Tracer().max_records == obs_trace.MAX_RECORDS

    def test_stats_returns_copies(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        tracer.stats()["phase"]["count"] = 99
        tracer.snapshot()["stats"]["phase"]["count"] = 99
        assert tracer.stats()["phase"]["count"] == 1

    def test_snapshot_carries_records_drops_and_stats(self):
        tracer = Tracer(max_records=1)
        for name in ("a", "b"):
            with tracer.span(name):
                pass
        snapshot = tracer.snapshot()
        assert [record["name"] for record in snapshot["records"]] == ["a"]
        assert snapshot["dropped_records"] == 1
        assert snapshot["stats"] == tracer.stats()
        json.dumps(snapshot)

    def test_snapshot_omits_mem_peak_without_sampling(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        [record] = tracer.snapshot()["records"]
        assert "mem_peak_kb" not in record

    def test_threads_keep_their_own_span_stacks(self):
        """A span opened on another thread never nests under this one's."""
        import threading

        tracer = Tracer()

        def work():
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=10)
        by_name = {record.name: record for record in tracer.records}
        assert by_name["worker"].parent is None
        assert by_name["worker"].depth == 0
        assert tracer.stats()["worker"]["count"] == 1

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
        [warning] = [m for m in caplog.messages if "dropped" in m]
        # The caps are module constants; the warning names them.
        assert "repro.obs.trace.MAX_RECORDS" in warning
        assert "repro.obs.timeline.DEFAULT_CAPACITY" in warning

    @pytest.mark.parametrize(
        "engine, build_span",
        [("grid", "visibility.build"), ("intervals", "intervals.build")],
    )
    def test_gauges_restate_no_span_or_counter(self, engine, build_span):
        """A store build is timed by its span alone, and the cull and mask
        pass ratios are derived from counters (``obs diff``): the one gauge
        left is a running maximum nothing else records."""
        from repro.experiments.common import ExperimentContext

        ExperimentContext(engine=engine).store(
            ExperimentConfig(runs=1, step_s=3600.0, duration_s=86_400.0)
        )
        report = collect_run_report()
        assert build_span in report["span_stats"]
        assert list(report["metrics"]["gauges"]) == [
            "sim.engine.capacity_saturation_peak"
        ]

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
