"""Tests for channel capacity models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.links.channel import (
    MODCOD_TABLE,
    ModCod,
    achievable_rate_bps,
    modcod_staircase,
    select_modcod,
    shannon_capacity_bps,
)


class TestShannon:
    def test_zero_snr_zero_capacity(self):
        assert shannon_capacity_bps(1e6, 0.0) == 0.0

    def test_snr_one_gives_bandwidth(self):
        # log2(1 + 1) = 1 bit/s/Hz.
        assert shannon_capacity_bps(1e6, 1.0) == pytest.approx(1e6)

    def test_known_point(self):
        # SNR 15 -> log2(16) = 4 b/s/Hz.
        assert shannon_capacity_bps(2e6, 15.0) == pytest.approx(8e6)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError, match="SNR"):
            shannon_capacity_bps(1e6, -0.1)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            shannon_capacity_bps(0.0, 1.0)

    @given(st.floats(0.0, 1e6))
    def test_monotone_in_snr(self, snr):
        assert shannon_capacity_bps(1e6, snr + 1.0) > shannon_capacity_bps(1e6, snr)


class TestModcodTable:
    def test_sorted_by_threshold_overall_shape(self):
        efficiencies = [m.spectral_efficiency_bps_hz for m in MODCOD_TABLE]
        assert efficiencies[0] < efficiencies[-1]

    def test_all_below_shannon(self):
        """No MODCOD claims more than Shannon capacity at its threshold."""
        for modcod in MODCOD_TABLE:
            snr_linear = 10 ** (modcod.required_snr_db / 10.0)
            shannon = shannon_capacity_bps(1.0, snr_linear)
            assert modcod.spectral_efficiency_bps_hz < shannon


class TestSelectModcod:
    def test_outage_below_most_robust(self):
        assert select_modcod(-10.0) is None

    def test_high_snr_gets_top_modcod(self):
        chosen = select_modcod(25.0)
        assert chosen is not None
        assert chosen.name == "32APSK 9/10"

    def test_mid_snr(self):
        chosen = select_modcod(5.0)
        assert chosen is not None
        assert chosen.name == "QPSK 3/4"

    def test_threshold_boundary_inclusive(self):
        chosen = select_modcod(MODCOD_TABLE[0].required_snr_db)
        assert chosen is not None
        assert chosen.name == MODCOD_TABLE[0].name

    def test_picks_best_efficiency_not_last_threshold(self):
        # At 11 dB both 8PSK 8/9 (10.69 dB, 2.646) and 16APSK 3/4
        # (10.21 dB, 2.967) close; the higher-efficiency one must win.
        chosen = select_modcod(11.0)
        assert chosen is not None
        assert chosen.name == "16APSK 3/4"


class TestAchievableRate:
    def test_outage_is_zero(self):
        assert achievable_rate_bps(-20.0, 1e6) == 0.0

    def test_rate_scales_with_bandwidth(self):
        rate1 = achievable_rate_bps(10.0, 1e6)
        rate2 = achievable_rate_bps(10.0, 2e6)
        assert rate2 == pytest.approx(2 * rate1)

    def test_monotone_in_snr(self):
        rates = [achievable_rate_bps(snr, 1e6) for snr in range(-5, 20)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestModcodStaircase:
    def test_one_step_per_operating_point(self):
        thresholds, efficiencies = modcod_staircase()
        assert thresholds.shape == efficiencies.shape == (len(MODCOD_TABLE),)

    def test_thresholds_ascend(self):
        thresholds, _ = modcod_staircase()
        assert list(thresholds) == sorted(m.required_snr_db for m in MODCOD_TABLE)

    def test_efficiencies_never_fall(self):
        _, efficiencies = modcod_staircase()
        assert (efficiencies[1:] >= efficiencies[:-1]).all()

    def test_dominated_point_inherits_the_better_efficiency(self):
        # 8PSK 8/9 needs more SNR than 16APSK 3/4 but is less efficient.
        thresholds, efficiencies = modcod_staircase()
        step = list(thresholds).index(10.69)
        assert efficiencies[step] == pytest.approx(2.967)

    def test_unsorted_table_gives_the_same_staircase(self):
        forward = modcod_staircase()
        backward = modcod_staircase(tuple(reversed(MODCOD_TABLE)))
        assert forward[0].tolist() == backward[0].tolist()
        assert forward[1].tolist() == backward[1].tolist()

    def test_single_point_table(self):
        thresholds, efficiencies = modcod_staircase((ModCod("only", 1.5, 3.0),))
        assert thresholds.tolist() == [3.0] and efficiencies.tolist() == [1.5]

    @pytest.mark.parametrize(
        "snr_db", [-5.0, -2.35, 0.0, 4.03, 10.21, 10.5, 10.69, 12.0, 16.05, 30.0]
    )
    def test_lookup_equals_select_modcod(self, snr_db):
        thresholds, efficiencies = modcod_staircase()
        index = int(np.searchsorted(thresholds, snr_db, side="right")) - 1
        chosen = select_modcod(snr_db)
        if chosen is None:
            assert index < 0
        else:
            assert efficiencies[index] == chosen.spectral_efficiency_bps_hz
