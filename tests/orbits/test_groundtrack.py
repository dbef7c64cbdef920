"""Tests for ground tracks."""

import numpy as np
import pytest

from repro.orbits.elements import OrbitalElements
from repro.orbits.groundtrack import compute_ground_track, nodal_shift_deg_per_orbit


@pytest.fixture
def starlink_elements():
    return OrbitalElements.from_degrees(altitude_km=546.0, inclination_deg=53.0)


class TestComputeGroundTrack:
    def test_shapes(self, starlink_elements):
        track = compute_ground_track(starlink_elements, 3 * 3600.0, step_s=30.0)
        assert len(track) == 360
        assert track.latitudes_deg.shape == track.longitudes_deg.shape

    def test_latitude_bounded_by_inclination(self, starlink_elements):
        track = compute_ground_track(starlink_elements, 2 * 3600.0, step_s=10.0)
        assert track.max_latitude_deg <= 53.0 + 0.5

    def test_reaches_near_inclination(self, starlink_elements):
        track = compute_ground_track(
            starlink_elements, starlink_elements.period_s, step_s=10.0
        )
        assert track.max_latitude_deg > 52.0

    def test_longitudes_in_range(self, starlink_elements):
        track = compute_ground_track(starlink_elements, 3600.0)
        assert np.all(track.longitudes_deg >= -180.0)
        assert np.all(track.longitudes_deg <= 180.0)

    def test_equatorial_orbit_stays_on_equator(self):
        equatorial = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.0
        )
        track = compute_ground_track(equatorial, 3600.0)
        assert track.max_latitude_deg < 0.01

    def test_rejects_bad_args(self, starlink_elements):
        with pytest.raises(ValueError, match="duration"):
            compute_ground_track(starlink_elements, 0.0)
        with pytest.raises(ValueError, match="step"):
            compute_ground_track(starlink_elements, 100.0, step_s=0.0)


class TestNodalShift:
    def test_ascending_nodes_shift_matches_prediction(self, starlink_elements):
        track = compute_ground_track(
            starlink_elements, 4 * starlink_elements.period_s, step_s=5.0
        )
        nodes = track.ascending_node_longitudes()
        assert nodes.size >= 3
        measured = (nodes[0] - nodes[1]) % 360.0
        predicted = nodal_shift_deg_per_orbit(starlink_elements) % 360.0
        assert measured == pytest.approx(predicted, abs=0.5)

    def test_shift_magnitude(self, starlink_elements):
        # ~95.6-minute orbit: Earth rotates ~24 deg per orbit, plus nodal
        # regression adds a fraction of a degree.
        shift = nodal_shift_deg_per_orbit(starlink_elements)
        assert shift == pytest.approx(24.2, abs=0.5)

    def test_higher_orbit_larger_shift(self, starlink_elements):
        high = starlink_elements.with_altitude_km(1200.0)
        assert nodal_shift_deg_per_orbit(high) > nodal_shift_deg_per_orbit(
            starlink_elements
        )
