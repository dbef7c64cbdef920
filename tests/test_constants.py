"""Tests for the physical constants and the Keplerian period helpers."""

import math

import pytest

from repro import constants
from repro.constants import (
    EARTH_RADIUS_M,
    SIDEREAL_DAY_S,
    mean_motion_rad_s,
    orbital_period_s,
)

#: (semi-major axis m, reference period s): textbook orbits.
REFERENCE_ORBITS = [
    pytest.param(EARTH_RADIUS_M + 420e3, 92.97 * 60.0, id="iss-420km"),
    pytest.param(EARTH_RADIUS_M + 550e3, 95.65 * 60.0, id="starlink-550km"),
    pytest.param(26_560e3, SIDEREAL_DAY_S / 2.0, id="gps-half-sidereal-day"),
    pytest.param(42_164.17e3, SIDEREAL_DAY_S, id="geostationary"),
]


class TestKeplerianPeriod:
    @pytest.mark.parametrize("axis_m, period_s", REFERENCE_ORBITS)
    def test_period_matches_reference_orbit(self, axis_m, period_s):
        assert orbital_period_s(axis_m) == pytest.approx(period_s, rel=1e-4)

    @pytest.mark.parametrize("axis_m, _period_s", REFERENCE_ORBITS)
    def test_mean_motion_sweeps_one_turn_per_period(self, axis_m, _period_s):
        turn = mean_motion_rad_s(axis_m) * orbital_period_s(axis_m)
        assert turn == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_third_law_scaling(self):
        """Doubling the axis multiplies the period by 2 ** 1.5."""
        ratio = orbital_period_s(2.0 * 7e6) / orbital_period_s(7e6)
        assert ratio == pytest.approx(2.0**1.5, rel=1e-12)

    @pytest.mark.parametrize("helper", [orbital_period_s, mean_motion_rad_s])
    @pytest.mark.parametrize("axis_m", [0.0, -7e6])
    def test_non_positive_axis_rejected(self, helper, axis_m):
        with pytest.raises(ValueError, match="semi-major axis must be positive"):
            helper(axis_m)


class TestDerivedConstants:
    def test_wgs84_eccentricity_squared(self):
        assert constants.EARTH_ECC_SQ == pytest.approx(6.69437999014e-3, rel=1e-10)

    def test_boltzmann_in_decibels(self):
        assert constants.BOLTZMANN_DBW == pytest.approx(-228.6, abs=0.01)

    def test_rotation_rate_turns_once_per_sidereal_day(self):
        turn = constants.EARTH_ROTATION_RATE * SIDEREAL_DAY_S
        assert turn == pytest.approx(2.0 * math.pi, rel=1e-6)

    def test_week_is_seven_solar_days(self):
        assert constants.WEEK_S == 7 * constants.DAY_S == 604_800.0
