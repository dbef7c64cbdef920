"""Engine-switch tests: experiments on analytic intervals vs the grid.

The intervals engine must be a drop-in execution knob: identical RNG
draws, the same sweep structure, and figure-level numbers that agree with
the grid engine up to the documented one-step-per-edge budget (which
shrinks as the scan step shrinks — the grid converges to the analytic
answer, not the other way round).

The checks ride the directory-wide ``engine`` fixture (see conftest):
every test here runs once per engine against a module-cached grid-engine
reference, so the grid pass doubles as a determinism check (default
context == explicit grid context) and the intervals pass is the
cross-engine agreement check.
"""

import re

import pytest

from repro.experiments import common
from repro.experiments.common import (
    ENGINE_GRID,
    ENGINE_INTERVALS,
    ENGINES,
    ExperimentConfig,
    ExperimentContext,
)
from repro.experiments.fig2_coverage_vs_size import Fig2Scenario
from repro.experiments.fig3_idle_vs_cities import Fig3Scenario
from repro.experiments.fig4a_single_addition import Fig4aScenario
from repro.experiments.fig5_withdrawal import Fig5Scenario
from repro.experiments.fig6_party_skew import Fig6Scenario
from repro.experiments.sharing_upside import SharingUpsideScenario
from repro.runner import run_scenario

#: Short horizon, moderate step: small enough for tests, fine enough that
#: grid quantization stays within a few percentage points of analytic.
CONFIG = ExperimentConfig(runs=2, step_s=120.0, seed=11, duration_s=21_600.0)


@pytest.fixture(scope="module", autouse=True)
def _clear_caches_after():
    yield
    common.clear_caches()


@pytest.fixture(scope="module")
def grid_reference():
    """Scenario results on an explicit grid-engine context, cached per
    scenario so both engine params compare against the same reference."""
    context = ExperimentContext(engine=ENGINE_GRID)
    cache = {}

    def compute(name, factory):
        if name not in cache:
            cache[name] = run_scenario(factory(), CONFIG, context=context)
        return cache[name]

    yield compute
    context.clear()


class TestContextEngine:
    def test_default_is_grid(self):
        assert ExperimentContext().engine == ENGINE_GRID

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ExperimentContext(engine="octree")

    def test_misspelled_engine_assigned_later_is_rejected(self):
        """The CLI and tests assign ``engine`` after construction; a typo
        must fail, not silently run the grid."""
        context = ExperimentContext()
        context.engine = "interval"
        config = ExperimentConfig(runs=1, step_s=900.0, duration_s=10_800.0)
        message = re.escape(str(ENGINES))
        with pytest.raises(ValueError, match=message):
            run_scenario(Fig3Scenario(sample_size=10), config, context=context)
        with pytest.raises(ValueError, match=message):
            context.subset_query(config, [0, 1])
        assert context.cached_visibility() == {}
        context.clear()

    def test_interval_cache_hits(self):
        context = ExperimentContext(engine=ENGINE_INTERVALS)
        config = ExperimentConfig(runs=1, step_s=900.0, duration_s=10_800.0)
        a = context.contact_intervals(config)
        b = context.contact_intervals(config)
        assert a is b
        context.clear()

    def test_clear_releases_intervals(self):
        context = ExperimentContext(engine=ENGINE_INTERVALS)
        config = ExperimentConfig(runs=1, step_s=900.0, duration_s=10_800.0)
        a = context.contact_intervals(config)
        context.clear()
        b = context.contact_intervals(config)
        assert a is not b
        context.clear()


class TestFig2Matrix:
    def _scenario(self):
        return Fig2Scenario(sizes=(100, 500, 2000))

    def test_agrees_with_grid_reference(self, engine, grid_reference):
        result = run_scenario(self._scenario(), CONFIG)
        reference = grid_reference("fig2", self._scenario)
        if engine == ENGINE_GRID:
            assert result.points == reference.points
            return
        for g, i in zip(reference.points, result.points):
            assert g.satellites == i.satellites
            # Identical subsets; only edge quantization differs.
            assert i.mean_uncovered_percent == pytest.approx(
                g.mean_uncovered_percent, abs=3.0
            )
            assert i.mean_max_gap_s == pytest.approx(
                g.mean_max_gap_s, abs=2.0 * CONFIG.step_s
            )

    def test_uncovered_decreases_with_size(self):
        result = run_scenario(Fig2Scenario(sizes=(50, 500, 2000)), CONFIG)
        uncovered = [p.mean_uncovered_percent for p in result.points]
        assert uncovered == sorted(uncovered, reverse=True)

    def test_deterministic(self):
        scenario = Fig2Scenario(sizes=(100,))
        a = run_scenario(scenario, CONFIG)
        b = run_scenario(scenario, CONFIG)
        assert a.points == b.points


class TestFig3Matrix:
    def _scenario(self):
        return Fig3Scenario(city_counts=(1, 21), sample_size=50)

    def test_agrees_with_grid_reference(self, engine, grid_reference):
        result = run_scenario(self._scenario(), CONFIG)
        reference = grid_reference("fig3", self._scenario)
        if engine == ENGINE_GRID:
            assert result.points == reference.points
            return
        for g, i in zip(reference.points, result.points):
            assert g.cities == i.cities
            assert i.mean_idle_percent == pytest.approx(
                g.mean_idle_percent, abs=3.0
            )

    def test_idle_decreases_with_cities(self):
        result = run_scenario(
            Fig3Scenario(city_counts=(1, 10, 21), sample_size=50), CONFIG
        )
        idle = [p.mean_idle_percent for p in result.points]
        assert idle == sorted(idle, reverse=True)


class TestFig4aMatrix:
    def _scenario(self):
        return Fig4aScenario(base_sizes=(1, 100))

    def test_agrees_with_grid_reference(self, engine, grid_reference):
        result = run_scenario(self._scenario(), CONFIG)
        reference = grid_reference("fig4a", self._scenario)
        if engine == ENGINE_GRID:
            assert result.points == reference.points
            return
        for g, i in zip(reference.points, result.points):
            assert g.base_satellites == i.base_satellites
            assert i.mean_gain_hours == pytest.approx(
                g.mean_gain_hours, abs=0.5
            )


class TestFig5Matrix:
    def _scenario(self):
        return Fig5Scenario(sizes=(200, 1000))

    def test_agrees_with_grid_reference(self, engine, grid_reference):
        result = run_scenario(self._scenario(), CONFIG)
        reference = grid_reference("fig5", self._scenario)
        if engine == ENGINE_GRID:
            assert result.points == reference.points
            return
        for g, i in zip(reference.points, result.points):
            assert g.satellites == i.satellites
            assert i.mean_reduction_percent == pytest.approx(
                g.mean_reduction_percent, abs=3.0
            )


class TestFig6Matrix:
    def _scenario(self):
        return Fig6Scenario(skews=(1, 10))

    def test_agrees_with_grid_reference(self, engine, grid_reference):
        result = run_scenario(self._scenario(), CONFIG)
        reference = grid_reference("fig6", self._scenario)
        if engine == ENGINE_GRID:
            assert result.points == reference.points
            return
        for g, i in zip(reference.points, result.points):
            assert g.skew == i.skew
            assert g.largest_party_satellites == i.largest_party_satellites
            assert i.mean_reduction_percent == pytest.approx(
                g.mean_reduction_percent, abs=3.0
            )


class TestSharingMatrix:
    def _scenario(self):
        return SharingUpsideScenario(calibration_sizes=(10, 100, 1000))

    def test_same_subsets_as_grid(self, engine, grid_reference):
        """Both engines must draw identical satellite samples: the
        calibration curve orderings match point for point."""
        result = run_scenario(self._scenario(), CONFIG)
        reference = grid_reference("sharing", self._scenario)
        if engine == ENGINE_GRID:
            assert result.calibration == reference.calibration
            return
        for (size_g, cov_g), (size_i, cov_i) in zip(
            reference.calibration, result.calibration
        ):
            assert size_g == size_i
            assert cov_i == pytest.approx(cov_g, abs=0.06)

    def test_runs_end_to_end(self):
        result = run_scenario(
            SharingUpsideScenario(calibration_sizes=(10, 50, 200, 1000)),
            CONFIG,
        )
        upside = result.upside
        assert upside.shared_coverage_fraction > upside.alone_coverage_fraction
        assert upside.satellite_multiplier > 1.0
