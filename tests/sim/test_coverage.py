"""Tests for coverage statistics and gap analytics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import TimeGrid
from repro.sim.coverage import (
    CoverageTimeline,
    coverage_improvement_s,
    coverage_reduction_fraction,
    coverage_stats,
    covered_runs_s,
    gap_lengths_s,
    population_weighted_coverage_fraction,
    population_weighted_coverage_time_s,
)


class TestGapLengths:
    def test_no_gaps(self):
        assert gap_lengths_s(np.ones(10, dtype=bool), 60.0).size == 0

    def test_all_gap(self):
        gaps = gap_lengths_s(np.zeros(10, dtype=bool), 60.0)
        assert list(gaps) == [600.0]

    def test_interior_gap(self):
        mask = np.array([True, False, False, True, True])
        assert list(gap_lengths_s(mask, 60.0)) == [120.0]

    def test_edge_gaps_counted(self):
        mask = np.array([False, True, True, False, False])
        assert list(gap_lengths_s(mask, 60.0)) == [60.0, 120.0]

    def test_multiple_gaps_in_order(self):
        mask = np.array([True, False, True, False, False, True])
        assert list(gap_lengths_s(mask, 10.0)) == [10.0, 20.0]

    def test_empty_mask(self):
        assert gap_lengths_s(np.array([], dtype=bool), 60.0).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            gap_lengths_s(np.ones((2, 2), dtype=bool), 60.0)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_total_gap_equals_uncovered_time(self, bits):
        mask = np.array(bits)
        gaps = gap_lengths_s(mask, 60.0)
        assert gaps.sum() == pytest.approx((~mask).sum() * 60.0)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_gaps_and_runs_partition_time(self, bits):
        mask = np.array(bits)
        gaps = gap_lengths_s(mask, 1.0)
        runs = covered_runs_s(mask, 1.0)
        assert gaps.sum() + runs.sum() == pytest.approx(float(mask.size))

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    def test_gap_count_matches_transitions(self, bits):
        mask = np.array(bits)
        gaps = gap_lengths_s(mask, 1.0)
        padded = np.concatenate(([True], mask, [True]))
        falls = np.sum(padded[:-1] & ~padded[1:])
        assert gaps.size == falls


class TestCoverageStats:
    def test_full_coverage(self):
        stats = coverage_stats(np.ones(100, dtype=bool), 60.0)
        assert stats.covered_fraction == 1.0
        assert stats.max_gap_s == 0.0
        assert stats.gap_count == 0

    def test_half_coverage(self):
        mask = np.array([True, False] * 50)
        stats = coverage_stats(mask, 60.0)
        assert stats.covered_fraction == 0.5
        assert stats.uncovered_percent == 50.0
        assert stats.gap_count == 50

    def test_times_sum_to_horizon(self):
        rng = np.random.default_rng(0)
        mask = rng.random(500) > 0.5
        stats = coverage_stats(mask, 30.0)
        assert stats.covered_time_s + stats.uncovered_time_s == pytest.approx(
            500 * 30.0
        )

    def test_max_gap(self):
        mask = np.array([True] + [False] * 7 + [True, False, False, True])
        stats = coverage_stats(mask, 60.0)
        assert stats.max_gap_s == 7 * 60.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            coverage_stats(np.array([], dtype=bool), 60.0)

    def test_percentages_split_the_horizon(self):
        mask = np.array([True, True, True, False])
        stats = coverage_stats(mask, 60.0)
        assert stats.covered_percent == 75.0
        assert stats.covered_percent + stats.uncovered_percent == 100.0


class TestCoverageTimeline:
    def test_stats_roundtrip(self):
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        mask = np.array([True] * 5 + [False] * 5)
        timeline = CoverageTimeline("taipei", grid, mask)
        assert timeline.covered_fraction == 0.5
        assert timeline.stats().uncovered_time_s == 300.0


class TestPopulationWeighting:
    def test_equal_weights_is_mean(self):
        masks = np.array([[True, True, False, False], [True, False, False, False]])
        fraction = population_weighted_coverage_fraction(masks, [1.0, 1.0])
        assert fraction == pytest.approx((0.5 + 0.25) / 2)

    def test_weight_normalization(self):
        masks = np.array([[True, True], [False, False]])
        assert population_weighted_coverage_fraction(
            masks, [2.0, 2.0]
        ) == population_weighted_coverage_fraction(masks, [0.5, 0.5])

    def test_skewed_weights(self):
        masks = np.array([[True, True], [False, False]])
        fraction = population_weighted_coverage_fraction(masks, [3.0, 1.0])
        assert fraction == pytest.approx(0.75)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            population_weighted_coverage_fraction(np.ones((2, 3), dtype=bool), [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            population_weighted_coverage_fraction(
                np.ones((2, 3), dtype=bool), [1.0, -1.0]
            )

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            population_weighted_coverage_fraction(
                np.ones((2, 3), dtype=bool), [0.0, 0.0]
            )

    def test_coverage_time(self):
        grid = TimeGrid(duration_s=3600.0, step_s=60.0)
        masks = np.ones((2, 60), dtype=bool)
        time_s = population_weighted_coverage_time_s(masks, [1.0, 1.0], grid)
        assert time_s == pytest.approx(3600.0)


class TestDeltas:
    def test_improvement(self):
        grid = TimeGrid(duration_s=100.0, step_s=10.0)
        base = np.zeros((1, 10), dtype=bool)
        augmented = np.ones((1, 10), dtype=bool)
        assert coverage_improvement_s(base, augmented, [1.0], grid) == pytest.approx(
            100.0
        )

    def test_reduction(self):
        base = np.ones((1, 10), dtype=bool)
        reduced = np.concatenate(
            [np.ones((1, 5), dtype=bool), np.zeros((1, 5), dtype=bool)], axis=1
        )
        assert coverage_reduction_fraction(base, reduced, [1.0]) == pytest.approx(0.5)

    def test_superset_never_reduces(self):
        rng = np.random.default_rng(3)
        base = rng.random((3, 50)) > 0.5
        augmented = base | (rng.random((3, 50)) > 0.7)
        grid = TimeGrid(duration_s=50.0, step_s=1.0)
        assert coverage_improvement_s(base, augmented, [1, 2, 3], grid) >= 0.0
