"""Tests for coverage-gap-driven placement."""

import numpy as np
import pytest

from repro.constellation.satellite import Satellite
from repro.core.placement import (
    PlacementScorer,
    best_candidate,
    clustered_design,
    gap_filling_candidates,
    greedy_gap_filling_design,
    random_design,
)
from repro.ground.cities import CITIES
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid


@pytest.fixture
def grid():
    return TimeGrid.hours(12.0, step_s=120.0)


@pytest.fixture
def cities():
    return CITIES[:5]


def _sat(sat_id, **kwargs):
    defaults = dict(altitude_km=550.0, inclination_deg=53.0)
    defaults.update(kwargs)
    return Satellite(
        sat_id=sat_id, elements=OrbitalElements.from_degrees(**defaults)
    )


class TestScorer:
    def test_empty_base_zero_fraction(self, grid, cities):
        scorer = PlacementScorer(None, grid, cities)
        assert scorer.base_fraction == 0.0

    def test_gain_nonnegative(self, grid, cities, small_walker):
        scorer = PlacementScorer(small_walker, grid, cities)
        scored = scorer.score([_sat("C-1", raan_deg=200.0)])
        assert scored[0].coverage_gain_fraction >= 0.0

    def test_gain_seconds_consistent(self, grid, cities):
        scorer = PlacementScorer(None, grid, cities)
        scored = scorer.score([_sat("C-1")])
        candidate = scored[0]
        assert candidate.coverage_gain_s == pytest.approx(
            candidate.coverage_gain_fraction * grid.duration_s
        )
        assert candidate.coverage_gain_hours == pytest.approx(
            candidate.coverage_gain_s / 3600.0
        )

    def test_duplicate_satellite_adds_nothing(self, grid, cities, small_walker):
        """Adding a copy of an existing satellite gains zero coverage."""
        scorer = PlacementScorer(small_walker, grid, cities)
        clone = Satellite(sat_id="CLONE", elements=small_walker[0].elements)
        scored = scorer.score([clone])
        assert scored[0].coverage_gain_fraction == pytest.approx(0.0, abs=1e-12)

    def test_empty_candidates(self, grid, cities, small_walker):
        scorer = PlacementScorer(small_walker, grid, cities)
        assert scorer.score([]) == []

    def test_absorb_raises_base(self, grid, cities):
        scorer = PlacementScorer(None, grid, cities)
        satellite = _sat("A")
        gain = scorer.score([satellite])[0].coverage_gain_fraction
        scorer.absorb(satellite)
        assert scorer.base_fraction == pytest.approx(gain)
        # Re-scoring the same satellite now gains nothing.
        assert scorer.score([satellite])[0].coverage_gain_fraction == pytest.approx(
            0.0, abs=1e-12
        )


class TestBestCandidate:
    def test_picks_max_gain(self, grid, cities):
        scorer = PlacementScorer(None, grid, cities)
        # Tokyo is in the city set; a satellite matched to northern latitudes
        # should beat an equatorial one for these cities.
        scored = scorer.score(
            [_sat("EQ", inclination_deg=0.1), _sat("INCLINED", inclination_deg=53.0)]
        )
        assert best_candidate(scored).satellite.sat_id == "INCLINED"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            best_candidate([])


class TestCandidateGeneration:
    def test_count_and_ids_unique(self, rng):
        candidates = gap_filling_candidates(rng, count=32)
        assert len(candidates) == 32
        assert len({candidate.sat_id for candidate in candidates}) == 32

    def test_respects_design_space(self, rng):
        candidates = gap_filling_candidates(
            rng,
            count=64,
            altitude_km_range=(540.0, 600.0),
            inclination_deg_choices=(43.0, 53.0),
        )
        for candidate in candidates:
            assert 540.0 <= candidate.elements.altitude_km <= 600.0
            assert round(candidate.elements.inclination_deg, 1) in (43.0, 53.0)

    def test_rejects_zero_count(self, rng):
        with pytest.raises(ValueError, match="positive"):
            gap_filling_candidates(rng, count=0)


class TestDesignStrategies:
    def test_greedy_design_size(self, grid, cities, rng):
        design = greedy_gap_filling_design(
            3, grid, rng, candidates_per_round=8, cities=cities
        )
        assert len(design) == 3

    def test_greedy_beats_clustered(self, grid, cities):
        """The paper's claim: gap-filling beats clustering at equal budget."""
        from repro.core.placement import PlacementScorer

        count = 6
        greedy = greedy_gap_filling_design(
            count,
            grid,
            np.random.default_rng(0),
            candidates_per_round=16,
            cities=cities,
        )
        clustered = clustered_design(count, np.random.default_rng(0))
        greedy_cov = PlacementScorer(greedy, grid, cities).base_fraction
        clustered_cov = PlacementScorer(clustered, grid, cities).base_fraction
        assert greedy_cov > clustered_cov

    def test_random_design_samples_pool(self, grid, small_walker, rng):
        design = random_design(10, small_walker, rng)
        assert len(design) == 10

    def test_clustered_design_is_clustered(self, rng):
        design = clustered_design(10, rng, phase_spread_deg=10.0)
        anomalies = [satellite.elements.mean_anomaly_deg for satellite in design]
        assert max(anomalies) - min(anomalies) <= 10.0

    def test_clustered_rejects_zero(self, rng):
        with pytest.raises(ValueError, match="positive"):
            clustered_design(0, rng)

    def test_greedy_rejects_zero(self, grid, rng):
        with pytest.raises(ValueError, match="positive"):
            greedy_gap_filling_design(0, grid, rng)
