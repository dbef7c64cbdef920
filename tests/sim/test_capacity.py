"""Tests for utilization / idle-time accounting."""

import numpy as np
import pytest

from repro.sim.capacity import (
    SpareCapacityLedger,
    spare_capacity_split,
    utilization_from_visibility,
)


def _vis(array):
    return np.asarray(array, dtype=bool)


class TestUtilization:
    def test_all_idle(self):
        visibility = _vis(np.zeros((2, 3, 10)))
        stats = utilization_from_visibility(visibility)
        assert stats.mean_idle_fraction == 1.0
        assert stats.mean_idle_percent == 100.0

    def test_fully_active(self):
        visibility = _vis(np.ones((1, 2, 10)))
        stats = utilization_from_visibility(visibility)
        assert stats.mean_active_fraction == 1.0

    def test_any_site_activates(self):
        visibility = np.zeros((2, 1, 4), dtype=bool)
        visibility[0, 0, 0] = True  # Site 0 sees the satellite at t0.
        visibility[1, 0, 1] = True  # Site 1 sees it at t1.
        stats = utilization_from_visibility(visibility)
        assert stats.mean_active_fraction == pytest.approx(0.5)

    def test_per_satellite_values(self):
        visibility = np.zeros((1, 2, 4), dtype=bool)
        visibility[0, 0, :2] = True
        stats = utilization_from_visibility(visibility)
        assert stats.per_satellite_idle_fraction[0] == pytest.approx(0.5)
        assert stats.per_satellite_idle_fraction[1] == pytest.approx(1.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match=r"\(S, N, T\)"):
            utilization_from_visibility(np.zeros((2, 3), dtype=bool))


class TestSpareCapacitySplit:
    def test_fractions_partition(self):
        rng = np.random.default_rng(0)
        visibility = rng.random((3, 4, 50)) > 0.6
        ledger = spare_capacity_split(
            visibility,
            terminal_parties=["a", "b", "c"],
            satellite_parties=["a", "b", "a", "c"],
        )
        total = ledger.own_fraction + ledger.spare_fraction + ledger.idle_fraction
        assert np.allclose(total, 1.0)

    def test_own_priority(self):
        # One satellite owned by "a"; terminal of "a" and terminal of "b"
        # both visible at t0 -> counts as own use, not spare.
        visibility = np.zeros((2, 1, 2), dtype=bool)
        visibility[0, 0, 0] = True  # a's terminal sees it at t0.
        visibility[1, 0, 0] = True  # b's terminal too.
        ledger = spare_capacity_split(visibility, ["a", "b"], ["a"])
        assert ledger.own_fraction[0] == pytest.approx(0.5)
        assert ledger.spare_fraction[0] == pytest.approx(0.0)

    def test_spare_when_only_other_party_visible(self):
        visibility = np.zeros((2, 1, 2), dtype=bool)
        visibility[1, 0, 0] = True  # Only b's terminal sees a's satellite.
        ledger = spare_capacity_split(visibility, ["a", "b"], ["a"])
        assert ledger.spare_fraction[0] == pytest.approx(0.5)
        assert ledger.own_fraction[0] == pytest.approx(0.0)

    def test_unowned_satellite_all_spare(self):
        visibility = np.ones((1, 1, 4), dtype=bool)
        ledger = spare_capacity_split(visibility, ["a"], ["z"])
        assert ledger.spare_fraction[0] == pytest.approx(1.0)

    def test_party_count_validation(self):
        visibility = np.zeros((2, 1, 2), dtype=bool)
        with pytest.raises(ValueError, match="terminal parties"):
            spare_capacity_split(visibility, ["a"], ["x"])
        with pytest.raises(ValueError, match="satellite parties"):
            spare_capacity_split(visibility, ["a", "b"], [])

    def test_ledger_validates_partition(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpareCapacityLedger(
                own_fraction=np.array([0.5]),
                spare_fraction=np.array([0.2]),
                idle_fraction=np.array([0.2]),
            )
