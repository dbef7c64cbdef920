"""Tests for orbital congestion analysis."""

import pytest

from repro.constellation.congestion import (
    conjunction_analysis,
    independent_vs_shared_occupancy,
    shell_occupancy,
)
from repro.constellation.satellite import Constellation, Satellite
from repro.constellation.walker import single_plane, walker_delta
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid


def _constellation_from(elements, prefix="C"):
    return Constellation(
        [
            Satellite(sat_id=f"{prefix}-{index}", elements=element)
            for index, element in enumerate(elements)
        ]
    )


@pytest.fixture
def grid():
    return TimeGrid(duration_s=3600.0, step_s=300.0)


class TestConjunctions:
    def test_well_spaced_plane_no_conjunctions(self, grid):
        constellation = _constellation_from(single_plane(12, 53.0, 550.0))
        report = conjunction_analysis(constellation, grid)
        assert report.conjunction_events == 0
        assert report.min_separation_m > 100_000.0

    def test_colocated_pair_conjunctions_every_step(self, grid):
        element = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        close = element.with_phase_shift(0.05)  # ~6 km along-track.
        constellation = _constellation_from([element, close])
        report = conjunction_analysis(constellation, grid, threshold_m=10_000.0)
        assert report.conjunction_events == grid.count

    def test_rate_normalization(self, grid):
        element = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        constellation = _constellation_from([element, element.with_phase_shift(0.05)])
        report = conjunction_analysis(constellation, grid)
        days = grid.duration_s / 86_400.0
        assert report.conjunction_rate_per_day == pytest.approx(
            report.conjunction_events / days
        )

    def test_report_counts_the_fleet(self, grid):
        element = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        constellation = _constellation_from([element, element.with_phase_shift(0.05)])
        report = conjunction_analysis(constellation, grid)
        assert report.satellite_count == 2
        assert report.conjunction_rate_per_day > 0.0
        assert 0.0 < report.min_separation_m <= report.median_nearest_neighbor_m

    def test_denser_constellation_more_congested(self, grid):
        sparse = _constellation_from(
            walker_delta(20, 4, 1, inclination_deg=53.0, altitude_km=550.0)
        )
        dense = _constellation_from(
            walker_delta(200, 20, 1, inclination_deg=53.0, altitude_km=550.0)
        )
        sparse_report = conjunction_analysis(sparse, grid, threshold_m=200_000.0)
        dense_report = conjunction_analysis(dense, grid, threshold_m=200_000.0)
        assert (
            dense_report.median_nearest_neighbor_m
            < sparse_report.median_nearest_neighbor_m
        )

    def test_rejects_bad_inputs(self, grid):
        constellation = _constellation_from(single_plane(2, 53.0, 550.0))
        with pytest.raises(ValueError, match="threshold"):
            conjunction_analysis(constellation, grid, threshold_m=0.0)
        single = _constellation_from(single_plane(1, 53.0, 550.0))
        with pytest.raises(ValueError, match="two satellites"):
            conjunction_analysis(single, grid)


class TestOccupancy:
    def test_single_shell(self):
        constellation = _constellation_from(single_plane(10, 53.0, 550.0))
        reports = shell_occupancy(constellation, band_width_km=20.0)
        assert len(reports) == 1
        assert reports[0].satellite_count == 10
        assert reports[0].altitude_band_km[0] <= 550.0 < reports[0].altitude_band_km[1]

    def test_two_shells_separated(self):
        low = single_plane(5, 53.0, 550.0)
        high = single_plane(7, 53.0, 1200.0)
        constellation = _constellation_from(low + high)
        reports = shell_occupancy(constellation, band_width_km=20.0)
        counts = sorted(report.satellite_count for report in reports)
        assert counts == [5, 7]

    def test_density_positive(self):
        constellation = _constellation_from(single_plane(10, 53.0, 550.0))
        report = shell_occupancy(constellation)[0]
        assert report.density_per_million_km3 > 0.0
        assert report.shell_volume_km3 > 0.0

    def test_empty_constellation(self):
        assert shell_occupancy(Constellation([])) == []

    def test_rejects_bad_band(self):
        constellation = _constellation_from(single_plane(2, 53.0, 550.0))
        with pytest.raises(ValueError, match="band width"):
            shell_occupancy(constellation, band_width_km=0.0)


class TestIndependentVsShared:
    def test_paper_scenario(self):
        """11 countries each launching 1000 satellites vs one shared 1000."""
        outcome = independent_vs_shared_occupancy(1000, 11, 1000)
        assert outcome["independent_total"] == 11_000
        assert outcome["orbital_objects_saved"] == 10_000

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            independent_vs_shared_occupancy(0, 2, 100)
