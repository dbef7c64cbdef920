"""Tests for propagation latency."""

import pytest

from repro.constants import EARTH_MEAN_RADIUS_M, SPEED_OF_LIGHT
from repro.links.latency import (
    GEO_ALTITUDE_KM,
    bent_pipe_latency,
    geo_vs_leo_round_trip_ms,
    latency_bounds_ms,
)


class TestBentPipeLatency:
    def test_zenith_hops(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        latency = bent_pipe_latency(radius, 90.0, 90.0)
        expected_hop = 550_000.0 / SPEED_OF_LIGHT
        assert latency.uplink_s == pytest.approx(expected_hop, rel=1e-6)
        assert latency.one_way_s == pytest.approx(2 * expected_hop, rel=1e-6)
        assert latency.round_trip_s == pytest.approx(4 * expected_hop, rel=1e-6)

    def test_low_elevation_longer(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        zenith = bent_pipe_latency(radius, 90.0, 90.0)
        grazing = bent_pipe_latency(radius, 25.0, 25.0)
        assert grazing.one_way_s > zenith.one_way_s

    def test_processing_added(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        without = bent_pipe_latency(radius, 90.0, 90.0)
        with_proc = bent_pipe_latency(radius, 90.0, 90.0, processing_s=0.005)
        assert with_proc.one_way_s - without.one_way_s == pytest.approx(0.005)

    def test_ms_properties(self):
        radius = EARTH_MEAN_RADIUS_M + 550_000.0
        latency = bent_pipe_latency(radius, 90.0, 90.0)
        assert latency.one_way_ms == pytest.approx(1000 * latency.one_way_s)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="radius"):
            bent_pipe_latency(EARTH_MEAN_RADIUS_M, 90.0, 90.0)
        with pytest.raises(ValueError, match="processing"):
            bent_pipe_latency(
                EARTH_MEAN_RADIUS_M + 1e5, 90.0, 90.0, processing_s=-1.0
            )


class TestPaperComparison:
    def test_geo_round_trip_is_second_level(self):
        """§2: GEO latency is 'second-level'."""
        _, geo_ms = geo_vs_leo_round_trip_ms()
        assert geo_ms > 480.0  # ~0.5 s bent-pipe round trip.

    def test_leo_round_trip_tens_of_ms(self):
        leo_ms, _ = geo_vs_leo_round_trip_ms(leo_altitude_km=550.0)
        assert 5.0 < leo_ms < 40.0

    def test_orders_of_magnitude_gap(self):
        """§2: 'orders of magnitude degradation in network latency'."""
        leo_ms, geo_ms = geo_vs_leo_round_trip_ms()
        assert geo_ms > 10.0 * leo_ms

    def test_geo_altitude_about_36000km(self):
        assert GEO_ALTITUDE_KM == pytest.approx(35_793.0, abs=100.0)


class TestBounds:
    def test_best_below_worst(self):
        best, worst = latency_bounds_ms(550.0)
        assert best < worst

    def test_higher_altitude_higher_latency(self):
        low_best, _ = latency_bounds_ms(550.0)
        high_best, _ = latency_bounds_ms(1200.0)
        assert high_best > low_best
