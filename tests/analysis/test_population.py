"""Tests for population-weighted metrics."""

import numpy as np
import pytest

from repro.analysis.population import weighted_city_coverage
from repro.ground.cities import CITIES, population_weights
from repro.sim.coverage import population_weighted_coverage_fraction
from repro.sim.clock import TimeGrid


class TestWeightedCityCoverage:
    def test_matches_manual(self, small_walker):
        grid = TimeGrid.hours(3.0, step_s=120.0)
        cities = CITIES[:3]
        fraction = weighted_city_coverage(small_walker, grid, cities)
        assert 0.0 <= fraction <= 1.0

    def test_more_satellites_more_coverage(self, small_walker):
        grid = TimeGrid.hours(6.0, step_s=120.0)
        cities = CITIES[:3]
        few = weighted_city_coverage(small_walker.take(range(5)), grid, cities)
        many = weighted_city_coverage(small_walker, grid, cities)
        assert many >= few

    def test_from_masks_weighting(self):
        # City 0 (largest population) fully covered, others uncovered.
        masks = np.zeros((3, 10), dtype=bool)
        masks[0] = True
        fraction = population_weighted_coverage_fraction(
            masks, population_weights(CITIES[:3])
        )
        weights_total = sum(city.population_millions for city in CITIES[:3])
        expected = CITIES[0].population_millions / weights_total
        assert fraction == pytest.approx(expected)
