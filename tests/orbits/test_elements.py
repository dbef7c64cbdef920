"""Tests for orbital elements and anomaly conversions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.constants import EARTH_RADIUS_M
from repro.orbits.elements import (
    OrbitalElements,
    eccentric_to_mean_anomaly,
    eccentric_to_true_anomaly,
    mean_to_eccentric_anomaly,
    mean_to_true_anomaly,
    true_to_eccentric_anomaly,
    wrap_angle,
)


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(1.0) == pytest.approx(1.0)

    def test_wraps_negative(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_wraps_above_two_pi(self):
        assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)

    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_exactly_two_pi_wraps_to_zero(self):
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-1000.0, 1000.0))
    def test_always_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert 0.0 <= wrapped < 2 * math.pi


class TestOrbitalElements:
    def test_from_degrees_altitude(self):
        elements = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        assert elements.semi_major_axis_m == pytest.approx(EARTH_RADIUS_M + 550_000.0)
        assert elements.altitude_km == pytest.approx(550.0)

    def test_inclination_roundtrip(self):
        elements = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        assert elements.inclination_deg == pytest.approx(53.0)

    def test_period_is_about_95_minutes_at_550km(self):
        elements = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        assert elements.period_s == pytest.approx(95.6 * 60.0, rel=0.01)

    def test_leo_period_shorter_than_geo(self):
        leo = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        geo = OrbitalElements.from_degrees(altitude_km=35_786.0, inclination_deg=0.0)
        assert leo.period_s < geo.period_s
        assert geo.period_s == pytest.approx(86_164.0, rel=0.001)

    def test_rejects_negative_semi_major_axis(self):
        with pytest.raises(ValueError, match="semi-major axis"):
            OrbitalElements(
                semi_major_axis_m=-1.0,
                eccentricity=0.0,
                inclination_rad=0.0,
                raan_rad=0.0,
                arg_perigee_rad=0.0,
                mean_anomaly_rad=0.0,
            )

    def test_rejects_eccentricity_of_one(self):
        with pytest.raises(ValueError, match="eccentricity"):
            OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0, eccentricity=1.0
            )

    def test_rejects_negative_eccentricity(self):
        with pytest.raises(ValueError, match="eccentricity"):
            OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0, eccentricity=-0.1
            )

    def test_rejects_inclination_over_pi(self):
        with pytest.raises(ValueError, match="inclination"):
            OrbitalElements(
                semi_major_axis_m=7e6,
                eccentricity=0.0,
                inclination_rad=3.5,
                raan_rad=0.0,
                arg_perigee_rad=0.0,
                mean_anomaly_rad=0.0,
            )

    def test_with_phase_shift(self):
        base = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=53.0, mean_anomaly_deg=10.0
        )
        shifted = base.with_phase_shift(15.0)
        assert shifted.mean_anomaly_deg == pytest.approx(25.0)
        assert shifted.raan_rad == base.raan_rad
        assert shifted.semi_major_axis_m == base.semi_major_axis_m

    def test_with_phase_shift_wraps(self):
        base = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=53.0, mean_anomaly_deg=350.0
        )
        assert base.with_phase_shift(20.0).mean_anomaly_deg == pytest.approx(10.0)

    def test_with_altitude(self):
        base = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        raised = base.with_altitude_km(600.0)
        assert raised.altitude_km == pytest.approx(600.0)
        assert raised.period_s > base.period_s

    def test_with_inclination(self):
        base = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        tilted = base.with_inclination_deg(43.0)
        assert tilted.inclination_deg == pytest.approx(43.0)
        assert tilted.period_s == pytest.approx(base.period_s)

    def test_semi_latus_rectum_circular(self):
        elements = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        assert elements.semi_latus_rectum_m == pytest.approx(
            elements.semi_major_axis_m
        )

    def test_frozen(self):
        elements = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        with pytest.raises(AttributeError):
            elements.eccentricity = 0.5


class TestAnomalyConversions:
    def test_circular_anomalies_coincide(self):
        mean = 1.234
        eccentric = mean_to_eccentric_anomaly(mean, 0.0)
        true = eccentric_to_true_anomaly(eccentric, 0.0)
        assert eccentric == pytest.approx(mean)
        assert true == pytest.approx(mean)

    @given(
        st.floats(0.0, 2 * math.pi - 1e-9),
        st.floats(0.0, 0.9),
    )
    def test_mean_eccentric_roundtrip(self, mean, eccentricity):
        eccentric = mean_to_eccentric_anomaly(mean, eccentricity)
        back = eccentric_to_mean_anomaly(eccentric, eccentricity)
        assert back == pytest.approx(mean, abs=1e-8)

    @given(
        st.floats(0.0, 2 * math.pi - 1e-9),
        st.floats(0.0, 0.9),
    )
    def test_eccentric_true_roundtrip(self, eccentric, eccentricity):
        true = eccentric_to_true_anomaly(eccentric, eccentricity)
        back = true_to_eccentric_anomaly(true, eccentricity)
        assert back == pytest.approx(eccentric, abs=1e-8)

    def test_true_anomaly_leads_at_perigee_side(self):
        # Between perigee and apogee the true anomaly runs ahead of the mean.
        mean = 1.0
        true = mean_to_true_anomaly(mean, 0.3)
        assert true > mean

    def test_apogee_fixed_point(self):
        # At apogee (M = pi) all anomalies coincide for any eccentricity.
        assert mean_to_true_anomaly(math.pi, 0.5) == pytest.approx(math.pi)
