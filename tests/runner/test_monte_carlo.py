"""Tests for the MonteCarloRunner: determinism, ordering, telemetry."""

import logging
import re
from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.obs import metrics
from repro.obs import timeline as obs_timeline
from repro.obs import trace as obs_trace
from repro.runner import MonteCarloRunner, Scenario, run_scenario

CONFIG = ExperimentConfig(runs=4, step_s=900.0, seed=7)


@dataclass
class ToyScenario(Scenario):
    """Cheap pool-free scenario: one random draw per run."""

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
class EmittingScenario(Scenario):
    """Pool-free scenario that narrates every run onto the timeline."""

    points: tuple = (1, 2)

    name = "toy_emit"
    salt = 98
    uses_pool = False

    def sweep(self, config, context):
        return list(self.points)

    def run_one(self, ctx, run_index):
        obs_timeline.emit(
            obs_timeline.PARTY_JOIN, t_s=0.0,
            subject=f"run-{ctx.point_index}-{ctx.run_index}",
        )
        return 0.0

    def reduce(self, point, point_index, samples, config):
        return len(samples)


@dataclass
class DeterministicScenario(Scenario):
    """Single point, single run — the fig4b/fig4c shape."""

    name = "toy_det"
    uses_pool = False

    def sweep(self, config, context):
        return ["only"]

    def runs_for(self, point, config):
        return 1

    def run_one(self, ctx, run_index):
        return 42.0

    def reduce(self, point, point_index, samples, config):
        return samples[0]


class TestCollect:
    def test_shapes_and_ordering(self):
        runner = MonteCarloRunner(CONFIG, context=ExperimentContext())
        points, samples = runner.collect(ToyScenario())
        assert points == [10, 20, 30]
        assert [len(s) for s in samples] == [CONFIG.runs] * 3
        # Samples carry their point's offset, in point order.
        for point, point_samples in zip(points, samples):
            assert all(point <= s < point + 1.0 for s in point_samples)

    def test_run_reduces_in_order(self):
        result = run_scenario(ToyScenario(), CONFIG, context=ExperimentContext())
        assert [point for point, _ in result] == [10, 20, 30]

    def test_deterministic_scenario_runs_once(self):
        runner = MonteCarloRunner(CONFIG, context=ExperimentContext())
        points, samples = runner.collect(DeterministicScenario())
        assert points == ["only"]
        assert samples == [[42.0]]


class TestOrderIndependence:
    def test_run_i_independent_of_total_runs(self):
        """Run i's sample is identical whether 4 or 16 runs were requested."""
        context = ExperimentContext()
        few = MonteCarloRunner(
            ExperimentConfig(runs=4, step_s=900.0, seed=7), context=context
        )
        many = MonteCarloRunner(
            ExperimentConfig(runs=16, step_s=900.0, seed=7), context=context
        )
        _, samples_few = few.collect(ToyScenario())
        _, samples_many = many.collect(ToyScenario())
        for point_few, point_many in zip(samples_few, samples_many):
            assert point_few == point_many[: len(point_few)]

    def test_runs_are_distinct(self):
        runner = MonteCarloRunner(CONFIG, context=ExperimentContext())
        _, samples = runner.collect(ToyScenario())
        for point_samples in samples:
            assert len(set(point_samples)) == len(point_samples)


class TestTelemetry:
    def test_records_one_span_per_point(self):
        name = "runner.point.toy"
        before = obs_trace.stats().get(name, {}).get("count", 0)
        run_scenario(ToyScenario(), CONFIG, context=ExperimentContext())
        after = obs_trace.stats()[name]["count"]
        assert after - before == 3

    def test_more_runs_than_span_records_drops_none(self):
        """Spans scale with points, not runs: a sweep with more runs than
        the tracer keeps records for still drops none."""
        obs_trace.TRACER.reset()
        config = ExperimentConfig(
            runs=obs_trace.MAX_RECORDS + 1, step_s=900.0, seed=7
        )
        run_scenario(ToyScenario(points=(10,)), config, context=ExperimentContext())
        assert obs_trace.TRACER.dropped_records == 0
        assert obs_trace.stats()["runner.point.toy"]["count"] == 1

    def test_timeline_events_in_point_run_order(self):
        obs_timeline.reset()
        try:
            run_scenario(EmittingScenario(), CONFIG, context=ExperimentContext())
            events = obs_timeline.events(kind=obs_timeline.PARTY_JOIN)
            subjects = [event.subject for event in events]
            expected = [
                f"run-{pi}-{ri}" for pi in range(2) for ri in range(CONFIG.runs)
            ]
            assert subjects == expected
        finally:
            obs_timeline.reset()

    def test_counts_runs_in_metrics(self):
        counter = metrics.counter("runner.runs")
        before = counter.value
        run_scenario(ToyScenario(), CONFIG, context=ExperimentContext())
        assert counter.value - before == 3 * CONFIG.runs


@pytest.fixture
def repro_records(caplog):
    """caplog over the ``repro`` hierarchy: ``configure_logging`` stops its
    records from reaching the root logger, where caplog listens."""
    repro_logger = logging.getLogger("repro")
    original = repro_logger.propagate
    repro_logger.propagate = True
    try:
        yield caplog
    finally:
        repro_logger.propagate = original


def _progress(caplog):
    return [
        record for record in caplog.records if record.name == "repro.runner"
    ]


class TestProgress:
    def test_one_info_line_per_sweep_point(self, repro_records):
        with repro_records.at_level(logging.INFO, logger="repro"):
            MonteCarloRunner(CONFIG, context=ExperimentContext()).collect(
                ToyScenario()
            )
        records = _progress(repro_records)
        assert [record.levelno for record in records] == [logging.INFO] * 3
        messages = [record.getMessage() for record in records]
        assert [message.split(", eta ")[0] for message in messages] == [
            "toy: 4/12 runs (33%)",
            "toy: 8/12 runs (67%)",
            "toy: 12/12 runs (100%)",
        ]
        assert all(re.search(r", eta \d+\.\ds$", m) for m in messages)
        assert messages[-1].endswith(", eta 0.0s")

    def test_counts_follow_runs_for(self, repro_records):
        """A deterministic point counts its one run, not ``config.runs``."""
        with repro_records.at_level(logging.INFO, logger="repro"):
            MonteCarloRunner(CONFIG, context=ExperimentContext()).collect(
                DeterministicScenario()
            )
        assert [r.getMessage() for r in _progress(repro_records)] == [
            "toy_det: 1/1 runs (100%), eta 0.0s"
        ]

    def test_silent_at_the_default_warning_level(self, repro_records):
        with repro_records.at_level(logging.WARNING, logger="repro"):
            MonteCarloRunner(CONFIG, context=ExperimentContext()).collect(
                ToyScenario()
            )
        assert _progress(repro_records) == []


class TestValidation:
    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError, match="runs"):
            MonteCarloRunner(
                ExperimentConfig(runs=0, step_s=900.0), context=ExperimentContext()
            )

    def test_sweep_validation_raises_before_any_run(self):
        @dataclass
        class Bad(ToyScenario):
            def sweep(self, config, context):
                raise ValueError("bad sweep")

        with pytest.raises(ValueError, match="bad sweep"):
            MonteCarloRunner(CONFIG, context=ExperimentContext()).collect(Bad())

    def test_kernel_exception_propagates(self):
        @dataclass
        class Exploding(ToyScenario):
            def run_one(self, ctx, run_index):
                raise RuntimeError("kernel exploded")

        with pytest.raises(RuntimeError, match="kernel exploded"):
            MonteCarloRunner(CONFIG, context=ExperimentContext()).collect(
                Exploding()
            )


class TestFig2SeedRegression:
    """Regression for the run-order RNG coupling the old fig2 loop had.

    The sequential generator made run i's sampled subset depend on ``runs``
    and on every preceding draw; the runner derives per-run seeds instead.
    """

    # One simulated day at 30-minute steps: small enough to build the
    # visibility tensor in seconds, real enough to exercise the kernel.
    SMALL = dict(step_s=1800.0, duration_s=86400.0, seed=2024)

    def test_fig2_run_i_sample_identical_for_5_and_20_runs(self):
        from repro.experiments.fig2_coverage_vs_size import Fig2Scenario

        context = ExperimentContext()
        scenario = Fig2Scenario(sizes=(50,))
        _, five = MonteCarloRunner(
            ExperimentConfig(runs=5, **self.SMALL), context=context
        ).collect(scenario)
        _, twenty = MonteCarloRunner(
            ExperimentConfig(runs=20, **self.SMALL), context=context
        ).collect(scenario)
        assert five[0] == twenty[0][:5]
        # Sanity: the runs genuinely differ from one another.
        assert len(set(twenty[0])) > 1

    def test_fig2_sampled_indices_depend_only_on_coordinates(self):
        """The exact indices drawn by fig2's kernel for (point, run) are a
        pure function of the seed coordinates."""
        from repro.runner import run_rng

        pool_size, size = 4408, 50
        for run_index in range(5):
            a = run_rng(2024, 2, 0, run_index).choice(
                pool_size, size=size, replace=False
            )
            b = run_rng(2024, 2, 0, run_index).choice(
                pool_size, size=size, replace=False
            )
            assert np.array_equal(a, b)
