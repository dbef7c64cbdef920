"""Tests for withdrawal/robustness analysis."""

import pytest

from repro.core.party import Party
from repro.core.registry import MultiPartyConstellation
from repro.core.robustness import WithdrawalImpact, largest_party_withdrawal
from repro.ground.cities import CITIES
from repro.sim.clock import TimeGrid


@pytest.fixture
def grid():
    return TimeGrid.hours(6.0, step_s=120.0)


@pytest.fixture
def cities():
    return CITIES[:4]


class TestWithdrawalImpact:
    def test_reduction_math(self):
        impact = WithdrawalImpact(0.8, 0.6, horizon_s=1000.0)
        assert impact.reduction_fraction == pytest.approx(0.2)
        assert impact.reduction_percent == pytest.approx(20.0)
        assert impact.lost_time_s == pytest.approx(200.0)

    def test_no_loss(self):
        impact = WithdrawalImpact(0.5, 0.5, horizon_s=100.0)
        assert impact.reduction_fraction == 0.0


class TestLargestPartyWithdrawal:
    def _registry(self, constellation, big, small):
        registry = MultiPartyConstellation()
        registry.join(Party("big"))
        registry.join(Party("small"))
        registry.contribute("big", [constellation[i] for i in range(big)])
        registry.contribute(
            "small", [constellation[i] for i in range(big, big + small)]
        )
        return registry

    def test_largest_withdrawn(self, small_walker, grid, cities):
        registry = self._registry(small_walker, 30, 10)
        impact = largest_party_withdrawal(registry, grid, cities)
        assert impact.reduction_fraction >= 0.0
        # Remaining quarter of the constellation covers less than the whole.
        assert impact.reduced_fraction <= impact.base_fraction

    def test_skew_hurts_more_than_balance(self, small_walker, grid, cities):
        skewed = self._registry(small_walker, 30, 10)
        balanced = self._registry(small_walker, 20, 20)
        skewed_impact = largest_party_withdrawal(skewed, grid, cities)
        balanced_impact = largest_party_withdrawal(balanced, grid, cities)
        assert (
            skewed_impact.reduction_fraction
            >= balanced_impact.reduction_fraction - 1e-9
        )
