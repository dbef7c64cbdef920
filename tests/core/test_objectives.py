"""Tests for regional-vs-global objective comparison."""

import numpy as np
import pytest

from repro.core.objectives import (
    global_scorer,
    objective_correlation,
    regional_scorer,
    spearman_correlation,
)
from repro.core.placement import gap_filling_candidates
from repro.ground.cities import CITIES, city_by_name
from repro.sim.clock import TimeGrid


@pytest.fixture
def grid():
    return TimeGrid.hours(12.0, step_s=300.0)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert spearman_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_vector_zero(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_ties_handled(self):
        value = spearman_correlation([1, 1, 2, 3], [1, 2, 3, 4])
        assert -1.0 <= value <= 1.0

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            spearman_correlation([1, 2], [1, 2, 3])

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman_correlation([1, 2], [1, 2])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        x = rng.random(20)
        y = x + 0.01 * rng.random(20)
        assert spearman_correlation(x, y) == pytest.approx(
            spearman_correlation(np.exp(x), y)
        )


class TestScorers:
    def test_regional_scorer_single_city(self, grid):
        scorer = regional_scorer(None, grid, city_by_name("Taipei"))
        assert len(scorer.cities) == 1

    def test_global_scorer_default_cities(self, grid):
        scorer = global_scorer(None, grid)
        assert len(scorer.cities) == len(CITIES)


class TestObjectiveCorrelation:
    def test_paper_observation_positive_correlation(self, grid, rng):
        """The paper: regional and profit objectives are correlated but not
        identical."""
        candidates = gap_filling_candidates(rng, count=24)
        comparison = objective_correlation(
            None, candidates, grid, home_city_name="Tokyo"
        )
        # Tokyo dominates the population weights, so rankings correlate.
        assert comparison.rank_correlation > 0.3

    def test_structure(self, grid, rng):
        candidates = gap_filling_candidates(rng, count=8)
        comparison = objective_correlation(
            None, candidates, grid, home_city_name="Taipei"
        )
        assert len(comparison.regional_gains) == 8
        assert len(comparison.global_gains) == 8
        assert comparison.regional_best in candidates
        assert comparison.global_best in candidates
        assert isinstance(comparison.same_winner, bool)

    def test_rejects_too_few_candidates(self, grid, rng):
        candidates = gap_filling_candidates(rng, count=2)
        with pytest.raises(ValueError, match="at least 3"):
            objective_correlation(None, candidates, grid, "Tokyo")
