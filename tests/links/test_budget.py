"""Tests for link budgets."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.links.budget import (
    KU_BAND_GATEWAY_DOWNLINK,
    KU_BAND_USER_UPLINK,
    LinkBudget,
    free_space_path_loss_db,
)


class TestFreeSpacePathLoss:
    def test_known_value(self):
        # Classic check: 1 km at 2.4 GHz ~ 100.1 dB.
        assert free_space_path_loss_db(1000.0, 2.4e9) == pytest.approx(100.1, abs=0.1)

    def test_leo_ku_band_magnitude(self):
        # 1000 km at 14 GHz ~ 175.4 dB.
        assert free_space_path_loss_db(1.0e6, 14.0e9) == pytest.approx(175.4, abs=0.2)

    def test_six_db_per_distance_doubling(self):
        near = free_space_path_loss_db(1.0e5, 12.0e9)
        far = free_space_path_loss_db(2.0e5, 12.0e9)
        assert far - near == pytest.approx(6.02, abs=0.01)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError, match="distance"):
            free_space_path_loss_db(0.0, 1e9)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            free_space_path_loss_db(1000.0, 0.0)

    @given(st.floats(1e3, 1e8), st.floats(1e9, 5e10))
    def test_monotone_in_distance_and_frequency(self, distance, frequency):
        loss = free_space_path_loss_db(distance, frequency)
        assert free_space_path_loss_db(distance * 2, frequency) > loss
        assert free_space_path_loss_db(distance, frequency * 2) > loss


class TestLinkBudget:
    def test_snr_decreases_with_range(self):
        budget = KU_BAND_USER_UPLINK
        assert budget.snr_db(600_000.0) > budget.snr_db(1_500_000.0)

    def test_user_uplink_closes_at_zenith(self):
        # At 550 km zenith range the representative uplink should close with
        # a healthy margin.
        assert KU_BAND_USER_UPLINK.snr_db(550_000.0) > 5.0

    def test_gateway_downlink_stronger_than_uplink(self):
        assert KU_BAND_GATEWAY_DOWNLINK.snr_db(1e6) > KU_BAND_USER_UPLINK.snr_db(1e6)

    def test_cn0_consistent_with_snr(self):
        budget = KU_BAND_USER_UPLINK
        distance = 800_000.0
        expected = budget.carrier_to_noise_density_dbhz(distance) - 10 * math.log10(
            budget.bandwidth_hz
        )
        assert budget.snr_db(distance) == pytest.approx(expected)

    def test_linear_snr_matches_db(self):
        budget = KU_BAND_USER_UPLINK
        distance = 700_000.0
        assert 10 * math.log10(budget.snr_linear(distance)) == pytest.approx(
            budget.snr_db(distance)
        )

    def test_extra_losses_reduce_snr(self):
        base = LinkBudget(30.0, 10.0, 12e9, 50e6, extra_losses_db=0.0)
        lossy = LinkBudget(30.0, 10.0, 12e9, 50e6, extra_losses_db=3.0)
        assert base.snr_db(1e6) - lossy.snr_db(1e6) == pytest.approx(3.0)

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError, match="losses"):
            LinkBudget(30.0, 10.0, 12e9, 50e6, extra_losses_db=-1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkBudget(30.0, 10.0, 12e9, 0.0)
