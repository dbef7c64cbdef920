"""Tests for the transparent bent-pipe relay model."""

import math

import pytest

from repro.links.bentpipe import BentPipeLink, RelayMode, TransparentTransponder
from repro.links.budget import KU_BAND_GATEWAY_DOWNLINK, KU_BAND_USER_UPLINK
from repro.links.channel import shannon_capacity_bps


@pytest.fixture
def link():
    return BentPipeLink(
        uplink=KU_BAND_USER_UPLINK, downlink=KU_BAND_GATEWAY_DOWNLINK
    )


@pytest.fixture
def regen_link():
    return BentPipeLink(
        uplink=KU_BAND_USER_UPLINK,
        downlink=KU_BAND_GATEWAY_DOWNLINK,
        mode=RelayMode.REGENERATIVE,
    )


class TestSnrComposition:
    def test_transparent_below_both_hops(self, link):
        up = link.uplink.snr_linear(700_000.0)
        down = link.downlink.snr_linear(900_000.0)
        total = link.end_to_end_snr_linear(700_000.0, 900_000.0)
        assert total < up
        assert total < down

    def test_transparent_cascade_formula(self, link):
        up = link.uplink.snr_linear(700_000.0)
        down = link.downlink.snr_linear(900_000.0)
        total = link.end_to_end_snr_linear(700_000.0, 900_000.0)
        assert total == pytest.approx(1.0 / (1.0 / up + 1.0 / down))

    def test_regenerative_is_min(self, regen_link):
        up = regen_link.uplink.snr_linear(700_000.0)
        down = regen_link.downlink.snr_linear(900_000.0)
        total = regen_link.end_to_end_snr_linear(700_000.0, 900_000.0)
        assert total == pytest.approx(min(up, down))

    def test_regenerative_beats_transparent(self, link, regen_link):
        """Decode-and-forward never does worse than the noise cascade."""
        transparent = link.end_to_end_snr_linear(700_000.0, 900_000.0)
        regenerative = regen_link.end_to_end_snr_linear(700_000.0, 900_000.0)
        assert regenerative > transparent

    def test_balanced_hops_lose_3db(self):
        """Equal hop SNRs compose to exactly half (-3 dB) transparently."""
        from repro.links.budget import LinkBudget

        budget = LinkBudget(30.0, 10.0, 12e9, 50e6)
        link = BentPipeLink(uplink=budget, downlink=budget)
        single = budget.snr_db(1e6)
        total = link.end_to_end_snr_db(1e6, 1e6)
        assert single - total == pytest.approx(3.01, abs=0.01)

    def test_snr_db_matches_linear(self, link):
        linear = link.end_to_end_snr_linear(700_000.0, 900_000.0)
        assert link.end_to_end_snr_db(700_000.0, 900_000.0) == pytest.approx(
            10 * math.log10(linear)
        )


class TestRates:
    def test_rate_positive_at_leo_range(self, link):
        assert link.achievable_rate_bps(600_000.0, 800_000.0) > 1e8

    def test_achievable_below_shannon(self, link):
        bandwidth = min(link.uplink.bandwidth_hz, link.downlink.bandwidth_hz)
        shannon = shannon_capacity_bps(
            bandwidth, link.end_to_end_snr_linear(600_000.0, 800_000.0)
        )
        achievable = link.achievable_rate_bps(600_000.0, 800_000.0)
        assert 0.0 < achievable < shannon

    def test_rates_fall_with_range(self, link):
        near = link.achievable_rate_bps(600_000.0, 600_000.0)
        far = link.achievable_rate_bps(2_000_000.0, 2_000_000.0)
        assert far <= near

    def test_outage_at_extreme_range(self, link):
        assert link.achievable_rate_bps(5e8, 5e8) == 0.0

    def test_bandwidth_limited_by_narrower_hop(self):
        from repro.links.budget import LinkBudget

        wide = LinkBudget(40.0, 30.0, 12e9, 100e6)
        narrow = LinkBudget(40.0, 30.0, 12e9, 25e6)
        link = BentPipeLink(uplink=wide, downlink=narrow)
        symmetric = BentPipeLink(uplink=narrow, downlink=narrow)
        assert link.achievable_rate_bps(6e5, 6e5) == pytest.approx(
            symmetric.achievable_rate_bps(6e5, 6e5), rel=0.1
        )


class TestTransponder:
    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            TransparentTransponder(bandwidth_hz=0.0)
