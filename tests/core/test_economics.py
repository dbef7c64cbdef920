"""Tests for constellation economics."""

import pytest

from repro.core.economics import CostModel, compare_deployments


class TestCostModel:
    def test_deployment_cost(self):
        model = CostModel(
            satellite_unit_cost=1e6,
            launch_cost_per_satellite=1e6,
            ground_segment_fixed=10e6,
        )
        assert model.deployment_cost(100) == pytest.approx(210e6)

    def test_zero_satellites_only_ground(self):
        model = CostModel(ground_segment_fixed=5e6)
        assert model.deployment_cost(0) == pytest.approx(5e6)

    def test_annual_cost_includes_replacement(self):
        model = CostModel(
            satellite_unit_cost=1e6,
            launch_cost_per_satellite=1e6,
            annual_operations_per_satellite=0.1e6,
            satellite_lifetime_years=5.0,
        )
        # Per year: ops 0.1M * N + replacement N/5 * 2M = 0.5M * N.
        assert model.annual_cost(100) == pytest.approx(50e6)

    def test_total_cost(self):
        model = CostModel()
        total = model.total_cost(100, 10.0)
        assert total == pytest.approx(
            model.deployment_cost(100) + 10.0 * model.annual_cost(100)
        )

    def test_paper_scale_megaconstellation_billions(self):
        """§1: full LEO networks cost $10-30B — the default model should put
        a Starlink-scale build (4400 sats, 10 years) in that ballpark."""
        model = CostModel()
        total = model.total_cost(4400, 10.0)
        assert 5e9 < total < 40e9

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CostModel(satellite_unit_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(satellite_lifetime_years=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            CostModel().deployment_cost(-1)


class TestComparison:
    def test_mp_leo_cheaper(self):
        comparison = compare_deployments(0.995, 1000, 91)
        assert comparison.mp_leo_cost < comparison.go_it_alone_cost
        assert comparison.cost_ratio > 5.0

    def test_contribution_cannot_exceed_alone(self):
        with pytest.raises(ValueError, match="exceeds"):
            compare_deployments(0.99, 100, 200)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            compare_deployments(0.99, 0, 1)
