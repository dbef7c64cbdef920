"""Tests for inter-satellite links."""

import math

import numpy as np
import pytest

from repro.constants import EARTH_MEAN_RADIUS_M
from repro.links.isl import isl_visibility, relayable_with_isl

LEO_RADIUS = EARTH_MEAN_RADIUS_M + 550_000.0


def _ring_positions(count, radius=LEO_RADIUS):
    """Satellites evenly spaced around an equatorial ring."""
    angles = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
    return np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(count)],
        axis=1,
    )


class TestIslVisibility:
    def test_neighbors_linked(self):
        positions = _ring_positions(20)
        feasible = isl_visibility(positions)
        assert feasible[0, 1]
        assert feasible[0, 19]

    def test_symmetric_no_self_links(self):
        positions = _ring_positions(12)
        feasible = isl_visibility(positions)
        assert np.array_equal(feasible, feasible.T)
        assert not feasible.diagonal().any()

    def test_antipodal_blocked_by_earth(self):
        positions = _ring_positions(2)  # 180 degrees apart: LOS through Earth.
        feasible = isl_visibility(positions, max_range_m=1e9)
        assert not feasible[0, 1]

    def test_range_limit(self):
        positions = _ring_positions(8)  # Neighbors ~5300 km apart.
        near_only = isl_visibility(positions, max_range_m=1_000_000.0)
        assert not near_only.any()

    def test_grazing_altitude_tightens(self):
        # Two satellites whose LOS grazes at ~200 km altitude.
        angle = 2 * math.acos((EARTH_MEAN_RADIUS_M + 200_000.0) / LEO_RADIUS)
        positions = np.array(
            [
                [LEO_RADIUS, 0.0, 0.0],
                [
                    LEO_RADIUS * math.cos(angle),
                    LEO_RADIUS * math.sin(angle),
                    0.0,
                ],
            ]
        )
        open_at_80km = isl_visibility(
            positions, max_range_m=1e9, grazing_altitude_m=80_000.0
        )
        blocked_at_300km = isl_visibility(
            positions, max_range_m=1e9, grazing_altitude_m=300_000.0
        )
        assert open_at_80km[0, 1]
        assert not blocked_at_300km[0, 1]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            isl_visibility(np.zeros((3, 2)))


class TestRelayableWithIsl:
    def test_direct_station_view_suffices(self):
        terminal = np.array([True, False])
        station = np.array([True, False])
        isl = np.zeros((2, 2), dtype=bool)
        result = relayable_with_isl(terminal, station, isl)
        assert list(result) == [True, False]

    def test_one_hop_forwarding(self):
        # Sat 0 sees the terminal only; sat 1 sees the station; they link.
        terminal = np.array([True, False])
        station = np.array([False, True])
        isl = np.array([[False, True], [True, False]])
        result = relayable_with_isl(terminal, station, isl)
        assert list(result) == [True, False]

    def test_no_isl_no_forwarding(self):
        terminal = np.array([True, False])
        station = np.array([False, True])
        isl = np.zeros((2, 2), dtype=bool)
        result = relayable_with_isl(terminal, station, isl)
        assert list(result) == [False, False]

    def test_multi_hop_chain(self):
        terminal = np.array([True, False, False, False])
        station = np.array([False, False, False, True])
        isl = np.zeros((4, 4), dtype=bool)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            isl[a, b] = isl[b, a] = True
        assert relayable_with_isl(terminal, station, isl)[0]

    def test_hop_cap(self):
        terminal = np.array([True, False, False, False])
        station = np.array([False, False, False, True])
        isl = np.zeros((4, 4), dtype=bool)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            isl[a, b] = isl[b, a] = True
        assert not relayable_with_isl(terminal, station, isl, max_hops=2)[0]
        assert relayable_with_isl(terminal, station, isl, max_hops=3)[0]

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            relayable_with_isl(
                np.array([True]), np.array([True, False]), np.zeros((2, 2), bool)
            )
