"""Tests for traffic workload models."""

import numpy as np
import pytest

from repro.sim.clock import TimeGrid
from repro.sim.traffic import ConstantDemand


@pytest.fixture
def grid():
    return TimeGrid(duration_s=24 * 3600.0, step_s=60.0)


class TestConstantDemand:
    def test_constant_everywhere(self, grid, rng):
        demand = ConstantDemand(rate_mbps=50.0).demand_mbps(grid, rng)
        assert demand.shape == (grid.count,)
        assert np.all(demand == 50.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConstantDemand(rate_mbps=-1.0)
