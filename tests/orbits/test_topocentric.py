"""Tests for topocentric geometry: look angles and the coverage fast path."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import EARTH_MEAN_RADIUS_M
from repro.orbits.frames import geodetic_to_ecef
from repro.orbits.topocentric import (
    central_angle_between,
    coverage_central_angle_rad,
    elevation_deg,
    footprint_area_fraction,
    look_angles,
    slant_range_m,
)


def _site_and_overhead_sat(lat=25.0, lon=121.5, altitude_km=550.0):
    site = geodetic_to_ecef(lat, lon, 0.0)
    direction = site / np.linalg.norm(site)
    satellite = site + direction * altitude_km * 1000.0
    return site, satellite


class TestLookAngles:
    def test_zenith_satellite(self):
        site, satellite = _site_and_overhead_sat()
        angles = look_angles(site, satellite, 25.0, 121.5)
        # The geocentric zenith differs from the geodetic by ~0.18 deg at
        # this latitude; overhead elevation is within that of 90.
        assert angles.elevation_deg > 89.5
        assert angles.slant_range_m == pytest.approx(550_000.0, rel=1e-6)

    def test_horizon_satellite_has_low_elevation(self):
        site = geodetic_to_ecef(0.0, 0.0, 0.0)
        # A satellite far to the east at the same height.
        satellite = geodetic_to_ecef(0.0, 25.0, 550_000.0)
        angles = look_angles(site, satellite, 0.0, 0.0)
        assert angles.elevation_deg < 10.0
        assert angles.azimuth_deg == pytest.approx(90.0, abs=1.0)

    def test_north_azimuth(self):
        site = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellite = geodetic_to_ecef(10.0, 0.0, 550_000.0)
        angles = look_angles(site, satellite, 0.0, 0.0)
        assert angles.azimuth_deg == pytest.approx(0.0, abs=1.0) or (
            angles.azimuth_deg == pytest.approx(360.0, abs=1.0)
        )

    def test_south_azimuth(self):
        site = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellite = geodetic_to_ecef(-10.0, 0.0, 550_000.0)
        angles = look_angles(site, satellite, 0.0, 0.0)
        assert angles.azimuth_deg == pytest.approx(180.0, abs=1.0)

    def test_coincident_raises(self):
        site = geodetic_to_ecef(0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="coincide"):
            look_angles(site, site, 0.0, 0.0)


class TestElevation:
    def test_matches_look_angles_on_equator(self):
        # On the equator geodetic and geocentric verticals coincide, so both
        # paths agree exactly.
        site = geodetic_to_ecef(0.0, 30.0, 0.0)
        satellite = geodetic_to_ecef(5.0, 38.0, 550_000.0)
        reference = look_angles(site, satellite, 0.0, 30.0).elevation_deg
        fast = float(elevation_deg(site, satellite))
        assert fast == pytest.approx(reference, abs=1e-9)

    def test_close_to_look_angles_at_mid_latitude(self):
        site = geodetic_to_ecef(45.0, 10.0, 0.0)
        satellite = geodetic_to_ecef(50.0, 15.0, 550_000.0)
        reference = look_angles(site, satellite, 45.0, 10.0).elevation_deg
        fast = float(elevation_deg(site, satellite))
        assert fast == pytest.approx(reference, abs=0.25)

    def test_vectorized(self):
        site = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellites = np.stack(
            [geodetic_to_ecef(0.0, lon, 550_000.0) for lon in (1.0, 10.0, 30.0)]
        )
        elevations = elevation_deg(site, satellites)
        assert elevations.shape == (3,)
        assert np.all(np.diff(elevations) < 0)  # Farther away = lower.


class TestCoverageGeometry:
    def test_central_angle_shrinks_with_mask(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        psi_10 = coverage_central_angle_rad(radius, 10.0)
        psi_25 = coverage_central_angle_rad(radius, 25.0)
        psi_40 = coverage_central_angle_rad(radius, 40.0)
        assert psi_10 > psi_25 > psi_40 > 0.0

    def test_central_angle_grows_with_altitude(self):
        low = coverage_central_angle_rad(EARTH_MEAN_RADIUS_M + 550_000.0, 25.0)
        high = coverage_central_angle_rad(EARTH_MEAN_RADIUS_M + 1_200_000.0, 25.0)
        assert high > low

    def test_known_value_550km_25deg(self):
        # psi = acos(R/r cos 25) - 25 deg ~ 8.4 deg for 550 km.
        psi = coverage_central_angle_rad(EARTH_MEAN_RADIUS_M + 550_000.0, 25.0)
        assert math.degrees(psi) == pytest.approx(8.45, abs=0.2)

    def test_rejects_subterranean_orbit(self):
        with pytest.raises(ValueError, match="orbital radius"):
            coverage_central_angle_rad(EARTH_MEAN_RADIUS_M - 1.0, 25.0)

    def test_footprint_fraction_tiny_for_leo(self):
        fraction = footprint_area_fraction(EARTH_MEAN_RADIUS_M + 550_000.0, 25.0)
        assert 0.002 < fraction < 0.01

    @pytest.mark.parametrize(
        "altitude_km, mask_deg",
        [(340.0, 40.0), (550.0, 25.0), (630.0, 35.0), (1_200.0, 45.0),
         (35_786.0, 5.0)],
        ids=["vleo", "starlink", "kuiper", "oneweb", "geo"],
    )
    def test_footprint_edge_sits_on_the_mask(self, altitude_km, mask_deg):
        """A satellite exactly psi away from the site is seen at the mask
        elevation, at the slant range the closed form gives."""
        radius = EARTH_MEAN_RADIUS_M + altitude_km * 1000.0
        psi = coverage_central_angle_rad(radius, mask_deg)
        site = np.array([EARTH_MEAN_RADIUS_M, 0.0, 0.0])
        satellite = radius * np.array([math.cos(psi), math.sin(psi), 0.0])
        assert float(elevation_deg(site, satellite)) == pytest.approx(mask_deg, abs=1e-9)
        assert np.linalg.norm(satellite - site) == pytest.approx(
            slant_range_m(radius, mask_deg, EARTH_MEAN_RADIUS_M), rel=1e-12
        )
        assert footprint_area_fraction(radius, mask_deg) == pytest.approx(
            (1.0 - math.cos(psi)) / 2.0
        )

    def test_equivalence_with_elevation(self):
        """The fast path's defining property: el >= mask <=> angle <= psi."""
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        mask = 25.0
        psi = coverage_central_angle_rad(radius, mask, EARTH_MEAN_RADIUS_M)
        site = np.array([EARTH_MEAN_RADIUS_M, 0.0, 0.0])
        for offset_deg in np.linspace(0.1, 20.0, 40):
            offset = math.radians(offset_deg)
            satellite = radius * np.array([math.cos(offset), math.sin(offset), 0.0])
            elevation = float(elevation_deg(site, satellite))
            assert (elevation >= mask) == (offset <= psi + 1e-12)

    def test_slant_range_at_zenith(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        assert slant_range_m(radius, 90.0) == pytest.approx(550_000.0, rel=1e-9)

    def test_slant_range_longer_at_low_elevation(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        assert slant_range_m(radius, 25.0) > slant_range_m(radius, 60.0)

    @given(st.floats(5.0, 85.0))
    def test_slant_range_consistent_with_geometry(self, elevation):
        """Law-of-cosines closure: placing a satellite at the computed range
        along the elevation direction lands it on the orbital sphere."""
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        rho = slant_range_m(radius, elevation)
        el = math.radians(elevation)
        sat_sq = (
            EARTH_MEAN_RADIUS_M**2
            + rho**2
            + 2.0 * EARTH_MEAN_RADIUS_M * rho * math.sin(el)
        )
        assert math.sqrt(sat_sq) == pytest.approx(radius, rel=1e-9)


class TestCentralAngleBetween:
    def test_identical_vectors(self):
        unit = np.array([1.0, 0.0, 0.0])
        cos_angle, angle = central_angle_between(unit, unit)
        assert float(cos_angle) == pytest.approx(1.0)
        assert float(angle) == pytest.approx(0.0)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        _, angle = central_angle_between(a, b)
        assert float(angle) == pytest.approx(math.pi / 2)

    def test_broadcast(self):
        a = np.tile([1.0, 0.0, 0.0], (5, 1))
        b = np.array([0.0, 0.0, 1.0])
        cos_angle, _ = central_angle_between(a, b)
        assert cos_angle.shape == (5,)
