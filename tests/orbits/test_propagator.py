"""Tests for the J2 and batch propagators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.constants import MU_EARTH
from repro.orbits.elements import OrbitalElements
from repro.orbits.propagator import BatchPropagator, J2Propagator, j2_secular_rates


class TestJ2Rates:
    def test_raan_regresses_for_prograde(self, leo_elements):
        rates = j2_secular_rates(leo_elements)
        assert rates.raan_rate < 0.0

    def test_raan_advances_for_retrograde(self):
        retro = OrbitalElements.from_degrees(altitude_km=560.0, inclination_deg=97.6)
        rates = j2_secular_rates(retro)
        assert rates.raan_rate > 0.0

    def test_polar_orbit_has_no_raan_drift(self):
        polar = OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=90.0)
        rates = j2_secular_rates(polar)
        assert rates.raan_rate == pytest.approx(0.0, abs=1e-12)

    def test_starlink_regression_rate_magnitude(self, leo_elements):
        # Starlink 53 deg / 550 km regresses ~ -4.5 deg/day (the classical
        # -5 deg/day figure is ISS at 51.6 deg / 420 km).
        rates = j2_secular_rates(leo_elements)
        deg_per_day = math.degrees(rates.raan_rate) * 86400.0
        assert deg_per_day == pytest.approx(-4.49, abs=0.2)

    def test_iss_regression_rate_magnitude(self):
        iss = OrbitalElements.from_degrees(altitude_km=420.0, inclination_deg=51.6)
        deg_per_day = math.degrees(j2_secular_rates(iss).raan_rate) * 86400.0
        assert deg_per_day == pytest.approx(-5.0, abs=0.2)

    def test_sun_synchronous_rate(self):
        # 97.6 deg at 560 km is near sun-synchronous: ~ +1 deg/day.
        sso = OrbitalElements.from_degrees(altitude_km=560.0, inclination_deg=97.6)
        deg_per_day = math.degrees(j2_secular_rates(sso).raan_rate) * 86400.0
        assert deg_per_day == pytest.approx(0.986, abs=0.15)

    def test_critical_inclination_freezes_perigee(self):
        critical = OrbitalElements.from_degrees(
            altitude_km=600.0, inclination_deg=63.43, eccentricity=0.01
        )
        rates = j2_secular_rates(critical)
        assert rates.arg_perigee_rate == pytest.approx(0.0, abs=1e-9)

    def test_mean_motion_close_to_keplerian(self, leo_elements):
        rates = j2_secular_rates(leo_elements)
        keplerian = leo_elements.mean_motion_rad_s
        assert rates.mean_anomaly_rate == pytest.approx(keplerian, rel=1e-3)


class TestJ2Propagator:
    def test_radius_constant_for_circular(self, leo_elements):
        propagator = J2Propagator(leo_elements)
        for time_s in (0.0, 1000.0, 5000.0, 50_000.0):
            radius = np.linalg.norm(propagator.position_eci(time_s))
            assert radius == pytest.approx(leo_elements.semi_major_axis_m, rel=1e-9)

    def test_returns_to_start_after_period(self, leo_elements):
        propagator = J2Propagator(leo_elements)
        start = propagator.position_eci(0.0)
        # Use the J2-corrected anomalistic period for the recurrence check.
        rates = j2_secular_rates(leo_elements)
        period = 2 * math.pi / rates.mean_anomaly_rate
        end = propagator.position_eci(period)
        # The anomalistic period restores the argument of latitude, but RAAN
        # drifts ~0.3 deg per orbit, displacing the position by ~30 km.
        assert np.linalg.norm(end - start) < 50_000.0

    def test_velocity_magnitude_circular(self, leo_elements):
        propagator = J2Propagator(leo_elements)
        _, velocity = propagator.state_eci(1234.0)
        expected = math.sqrt(MU_EARTH / leo_elements.semi_major_axis_m)
        assert np.linalg.norm(velocity) == pytest.approx(expected, rel=1e-9)

    def test_velocity_perpendicular_to_position_circular(self, leo_elements):
        propagator = J2Propagator(leo_elements)
        position, velocity = propagator.state_eci(500.0)
        cosine = position @ velocity / (
            np.linalg.norm(position) * np.linalg.norm(velocity)
        )
        assert cosine == pytest.approx(0.0, abs=1e-9)

    def test_max_latitude_bounded_by_inclination(self, leo_elements):
        propagator = J2Propagator(leo_elements)
        max_z_over_r = max(
            abs(propagator.position_eci(t)[2])
            / np.linalg.norm(propagator.position_eci(t))
            for t in np.linspace(0, leo_elements.period_s, 200)
        )
        assert math.degrees(math.asin(max_z_over_r)) <= 53.0 + 1e-6

    def test_eccentric_orbit_radius_range(self, eccentric_elements):
        propagator = J2Propagator(eccentric_elements)
        radii = [
            np.linalg.norm(propagator.position_eci(t))
            for t in np.linspace(0, eccentric_elements.period_s, 100)
        ]
        a = eccentric_elements.semi_major_axis_m
        e = eccentric_elements.eccentricity
        assert min(radii) == pytest.approx(a * (1 - e), rel=1e-3)
        assert max(radii) == pytest.approx(a * (1 + e), rel=1e-3)

    def test_elements_at_drifts_raan(self, leo_elements):
        propagator = J2Propagator(leo_elements)
        day_later = propagator.elements_at(86_400.0)
        drift_deg = (day_later.raan_deg - leo_elements.raan_deg) % 360.0 - 360.0
        assert drift_deg == pytest.approx(-4.49, abs=0.2)

    def test_energy_conserved(self, eccentric_elements):
        propagator = J2Propagator(eccentric_elements)
        energies = []
        for t in np.linspace(0, eccentric_elements.period_s, 20):
            position, velocity = propagator.state_eci(t)
            energy = 0.5 * velocity @ velocity - MU_EARTH / np.linalg.norm(position)
            energies.append(energy)
        assert np.ptp(energies) / abs(np.mean(energies)) < 1e-9


class TestBatchPropagator:
    def _assert_matches_scalar(self, elements_list, times):
        batch = BatchPropagator(elements_list)
        positions = batch.positions_eci(times)
        for index, elements in enumerate(elements_list):
            scalar = J2Propagator(elements)
            for t_index, time_s in enumerate(times):
                expected = scalar.position_eci(float(time_s))
                np.testing.assert_allclose(
                    positions[index, t_index], expected, rtol=0, atol=0.5
                )

    def test_matches_scalar_circular(self, leo_elements):
        variants = [
            leo_elements,
            replace(leo_elements, raan_rad=math.radians(120.0)),
            leo_elements.with_inclination_deg(97.6),
            leo_elements.with_altitude_km(600.0),
        ]
        times = np.array([0.0, 600.0, 7200.0, 86_400.0])
        self._assert_matches_scalar(variants, times)

    def test_matches_scalar_eccentric(self, eccentric_elements):
        times = np.array([0.0, 500.0, 3000.0, 40_000.0])
        self._assert_matches_scalar([eccentric_elements], times)

    def test_mixed_batch_takes_general_path(self, leo_elements, eccentric_elements):
        times = np.array([0.0, 1000.0])
        self._assert_matches_scalar([leo_elements, eccentric_elements], times)

    def test_unit_positions_are_unit(self, leo_elements, eccentric_elements):
        batch = BatchPropagator([leo_elements, eccentric_elements])
        units = batch.unit_positions_eci(np.linspace(0, 10_000, 50))
        norms = np.linalg.norm(units, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_unit_positions_parallel_to_positions(self, eccentric_elements):
        batch = BatchPropagator([eccentric_elements])
        times = np.linspace(0, 5000, 10)
        positions = batch.positions_eci(times)
        units = batch.unit_positions_eci(times)
        normalized = positions / np.linalg.norm(positions, axis=-1, keepdims=True)
        assert np.allclose(units, normalized, atol=1e-12)

    @pytest.mark.parametrize("eccentric", (False, True))
    def test_positions_scale_unit_vectors_exactly(
        self, leo_elements, eccentric_elements, eccentric
    ):
        # One product per component either way, so bit-exact on both the
        # circular fast path and the Kepler path.
        elements = [leo_elements, eccentric_elements] if eccentric else [leo_elements]
        batch = BatchPropagator(elements)
        times = np.linspace(0, 5000, 10)
        radius = batch._latitude_args(times)[0]
        assert np.array_equal(
            batch.positions_eci(times),
            batch.unit_positions_eci(times) * radius[..., None],
        )

    def test_shape(self, leo_elements):
        batch = BatchPropagator([leo_elements] * 5)
        positions = batch.positions_eci(np.zeros(7))
        assert positions.shape == (5, 7, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one satellite"):
            BatchPropagator([])

    def test_subset(self, leo_elements):
        elements = [
            replace(leo_elements, raan_rad=math.radians(raan)) for raan in range(10)
        ]
        batch = BatchPropagator(elements)
        subset = batch.subset(np.array([2, 5, 7]))
        assert subset.count == 3
        times = np.array([0.0, 100.0])
        np.testing.assert_allclose(
            subset.positions_eci(times),
            batch.positions_eci(times)[[2, 5, 7]],
        )

    def test_subset_rejects_empty(self, leo_elements):
        batch = BatchPropagator([leo_elements])
        with pytest.raises(ValueError, match="at least one satellite"):
            batch.subset(np.array([], dtype=int))

    def test_epoch_offset_respected(self, leo_elements):
        from dataclasses import replace

        offset = replace(leo_elements, epoch_s=1000.0)
        batch = BatchPropagator([leo_elements, offset])
        positions = batch.positions_eci(np.array([1000.0]))
        # The offset satellite at t=1000 looks like the base satellite at t=0.
        base_at_zero = BatchPropagator([leo_elements]).positions_eci(
            np.array([0.0])
        )
        np.testing.assert_allclose(positions[1], base_at_zero[0], atol=1e-6)
