"""Tests for time and coordinate frames."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import EARTH_RADIUS_M, EARTH_ROTATION_RATE
from repro.orbits.frames import (
    ecef_to_eci,
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
    gmst_rad,
    subsatellite_point,
)


class TestGmst:
    def test_advances_with_earth_rotation(self):
        theta0 = gmst_rad(0.0)
        theta1 = gmst_rad(3600.0)
        assert (theta1 - theta0) % (2 * math.pi) == pytest.approx(
            EARTH_ROTATION_RATE * 3600.0
        )

    def test_epoch_offset(self):
        assert gmst_rad(0.0, gmst_at_epoch_rad=1.0) == pytest.approx(1.0)

    def test_vectorized(self):
        times = np.array([0.0, 100.0, 200.0])
        theta = gmst_rad(times)
        assert theta.shape == (3,)
        assert np.all(np.diff(theta) > 0)


class TestEciEcefRotation:
    def test_zero_gmst_is_identity(self):
        position = np.array([1.0e7, 2.0e6, 3.0e6])
        assert np.allclose(eci_to_ecef(position, 0.0), position)

    def test_quarter_turn(self):
        position = np.array([1.0, 0.0, 0.0])
        rotated = eci_to_ecef(position, math.pi / 2)
        assert np.allclose(rotated, [0.0, -1.0, 0.0], atol=1e-12)

    def test_z_invariant(self):
        position = np.array([1.0, 2.0, 5.0])
        assert eci_to_ecef(position, 1.234)[2] == pytest.approx(5.0)

    def test_roundtrip(self):
        position = np.array([4.2e6, -1.1e6, 5.5e6])
        theta = 2.345
        assert np.allclose(ecef_to_eci(eci_to_ecef(position, theta), theta), position)

    def test_norm_preserved(self):
        position = np.array([3.0e6, 4.0e6, 5.0e6])
        rotated = eci_to_ecef(position, 0.7)
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(position))

    def test_batched_positions_and_angles(self):
        positions = np.ones((4, 3))
        thetas = np.linspace(0, 1, 4)
        rotated = eci_to_ecef(positions, thetas)
        assert rotated.shape == (4, 3)


class TestGeodetic:
    def test_equator_prime_meridian(self):
        ecef = geodetic_to_ecef(0.0, 0.0, 0.0)
        assert ecef[0] == pytest.approx(EARTH_RADIUS_M)
        assert ecef[1] == pytest.approx(0.0, abs=1e-6)
        assert ecef[2] == pytest.approx(0.0, abs=1e-6)

    def test_north_pole(self):
        ecef = geodetic_to_ecef(90.0, 0.0, 0.0)
        assert ecef[0] == pytest.approx(0.0, abs=1e-6)
        # Polar radius ~ 6356.75 km, shorter than equatorial.
        assert ecef[2] == pytest.approx(6_356_752.3, abs=10.0)

    def test_altitude_adds_radially(self):
        ground = geodetic_to_ecef(45.0, 45.0, 0.0)
        raised = geodetic_to_ecef(45.0, 45.0, 1000.0)
        assert np.linalg.norm(raised - ground) == pytest.approx(1000.0, abs=1e-6)

    def test_vectorized(self):
        ecef = geodetic_to_ecef(np.array([0.0, 45.0]), np.array([0.0, 90.0]))
        assert ecef.shape == (2, 3)

    @given(
        st.floats(-89.0, 89.0),
        st.floats(-179.0, 179.0),
        st.floats(0.0, 1_000_000.0),
    )
    def test_roundtrip(self, lat, lon, alt):
        ecef = geodetic_to_ecef(lat, lon, alt)
        lat2, lon2, alt2 = ecef_to_geodetic(ecef)
        assert float(lat2) == pytest.approx(lat, abs=1e-6)
        assert float(lon2) == pytest.approx(lon, abs=1e-6)
        assert float(alt2) == pytest.approx(alt, abs=0.01)


class TestSubsatellitePoint:
    def test_equatorial_satellite_over_equator(self):
        position_eci = np.array([7.0e6, 0.0, 0.0])
        lat, lon = subsatellite_point(position_eci, 0.0)
        assert float(lat) == pytest.approx(0.0)
        assert float(lon) == pytest.approx(0.0)

    def test_earth_rotation_shifts_longitude_west(self):
        position_eci = np.array([7.0e6, 0.0, 0.0])
        _, lon = subsatellite_point(position_eci, math.radians(30.0))
        assert float(lon) == pytest.approx(-30.0)

    def test_polar_satellite_latitude(self):
        position_eci = np.array([0.0, 0.0, 7.0e6])
        lat, _ = subsatellite_point(position_eci, 0.0)
        assert float(lat) == pytest.approx(90.0)
