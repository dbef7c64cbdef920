"""Tests for the live telemetry path of the MonteCarloRunner.

With an active bus the runner publishes ``scenario.*`` frames around each
scenario and ``run.*`` frames around each repetition (asserted via a
captured bus transcript); an inactive bus publishes nothing; a live bus
renders ``[live]`` progress lines.
"""

import io
from dataclasses import dataclass

import pytest

from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.obs import metrics
from repro.obs.bus import (
    RUN_FINISHED,
    RUN_STARTED,
    SCENARIO_FINISHED,
    SCENARIO_STARTED,
    BusRecorder,
    TelemetryBus,
)
from repro.runner import MonteCarloRunner, Scenario

CONFIG = ExperimentConfig(runs=4, step_s=900.0, seed=7)


@dataclass
class ToyScenario(Scenario):
    points: tuple = (10, 20, 30)

    name = "toy"
    salt = 99
    uses_pool = False

    def sweep(self, config, context):
        return list(self.points)

    def run_one(self, ctx, run_index):
        return float(ctx.point) + float(ctx.rng.random())

    def reduce(self, point, point_index, samples, config):
        return (point, samples)


@dataclass
class ExplodingScenario(ToyScenario):
    def run_one(self, ctx, run_index):
        raise RuntimeError("kernel exploded")


class TestLiveSerial:
    def test_live_results_match_quiet_run_exactly(self):
        quiet = MonteCarloRunner(
            CONFIG, context=ExperimentContext(), bus=TelemetryBus()
        ).run(ToyScenario())
        bus = TelemetryBus()
        bus.enable_live(stream=io.StringIO(), interval_s=0.0)
        live = MonteCarloRunner(
            CONFIG, context=ExperimentContext(), bus=bus
        ).run(ToyScenario())
        assert quiet == live

    def test_transcript_streams_progress_frames(self):
        """Run frames arrive one per repetition, between the scenario
        frames, in (point, run) order."""
        bus = TelemetryBus()
        recorder = BusRecorder()
        bus.subscribe(recorder)
        MonteCarloRunner(
            CONFIG, context=ExperimentContext(), bus=bus
        ).collect(ToyScenario())
        kinds = recorder.kinds()
        tasks = 3 * CONFIG.runs
        assert kinds == (
            [SCENARIO_STARTED] + [RUN_STARTED, RUN_FINISHED] * tasks
            + [SCENARIO_FINISHED]
        )
        transcript = recorder.transcript()
        assert transcript[0]["payload"] == {
            "scenario": "toy", "tasks": tasks, "points": 3,
        }
        finished = [r["payload"] for r in transcript if r["kind"] == RUN_FINISHED]
        assert [(p["point_index"], p["run_index"]) for p in finished] == [
            (point, run) for point in range(3) for run in range(CONFIG.runs)
        ]
        assert all(p["wall_s"] >= 0.0 for p in finished)
        # One batch per point: its runs share the point's mean wall time.
        for point in range(3):
            assert len({p["wall_s"] for p in finished if p["point_index"] == point}) == 1

    def test_live_status_renders_progress_lines(self):
        stream = io.StringIO()
        bus = TelemetryBus()
        bus.enable_live(stream=stream, interval_s=0.0)
        MonteCarloRunner(
            CONFIG, context=ExperimentContext(), bus=bus
        ).collect(ToyScenario())
        lines = stream.getvalue().splitlines()
        assert lines, "no live-status lines rendered"
        assert any("[live] toy:" in line for line in lines)
        done = f"{3 * CONFIG.runs}/{3 * CONFIG.runs}"
        assert any(done in line for line in lines)

    def test_serial_publishes_frames_when_bus_active(self):
        bus = TelemetryBus()
        recorder = BusRecorder()
        bus.subscribe(recorder)
        MonteCarloRunner(
            CONFIG, context=ExperimentContext(), bus=bus
        ).collect(ToyScenario())
        assert recorder.count(RUN_FINISHED) == 3 * CONFIG.runs
        assert recorder.count(SCENARIO_STARTED) == 1

    def test_inactive_bus_publishes_nothing(self):
        bus = TelemetryBus()
        before = metrics.counter("bus.frames_published").value
        MonteCarloRunner(
            CONFIG, context=ExperimentContext(), bus=bus
        ).collect(ToyScenario())
        assert metrics.counter("bus.frames_published").value == before
        assert bus.summary()["frames_total"] == 0

    def test_kernel_exception_propagates(self):
        bus = TelemetryBus()
        bus.enable_live(stream=io.StringIO(), interval_s=0.0)
        with pytest.raises(RuntimeError, match="kernel exploded"):
            MonteCarloRunner(
                CONFIG, context=ExperimentContext(), bus=bus
            ).collect(ExplodingScenario())
