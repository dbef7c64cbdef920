"""Tests for downlink scheduling."""

import numpy as np
import pytest

from repro.sim.clock import TimeGrid
from repro.sim.scheduling import (
    DownlinkScheduler,
    SchedulingPolicy,
    compare_policies,
)


@pytest.fixture
def grid():
    return TimeGrid(duration_s=600.0, step_s=60.0)  # 10 steps.


def _always_visible(stations, sats, steps):
    return np.ones((stations, sats, steps), dtype=bool)


class TestBasicScheduling:
    def test_single_sat_fully_drained(self, grid):
        visibility = _always_visible(1, 1, 10)
        result = DownlinkScheduler(
            visibility, grid, downlink_rate_mbps=500.0, generation_rate_mbps=10.0
        ).run()
        assert result.delivery_fraction == pytest.approx(1.0)
        assert result.remaining_backlog_megabits[0] == pytest.approx(0.0)

    def test_conservation(self, grid):
        """Generated = downlinked + remaining, always."""
        rng = np.random.default_rng(0)
        visibility = rng.random((2, 5, 10)) > 0.5
        result = DownlinkScheduler(
            visibility, grid, downlink_rate_mbps=100.0, generation_rate_mbps=50.0
        ).run()
        np.testing.assert_allclose(
            result.generated_megabits,
            result.downlinked_megabits + result.remaining_backlog_megabits,
        )

    def test_no_visibility_no_downlink(self, grid):
        visibility = np.zeros((1, 2, 10), dtype=bool)
        result = DownlinkScheduler(visibility, grid).run()
        assert result.total_downlinked_megabits == 0.0
        assert np.all(result.assignment == -1)
        assert result.delivery_fraction == 0.0

    def test_rate_limits_drain(self, grid):
        """Downlink rate below generation rate leaves a growing backlog."""
        visibility = _always_visible(1, 1, 10)
        result = DownlinkScheduler(
            visibility, grid, downlink_rate_mbps=10.0, generation_rate_mbps=50.0
        ).run()
        assert result.remaining_backlog_megabits[0] > 0.0
        assert result.delivery_fraction == pytest.approx(0.2, abs=0.01)

    def test_one_antenna_one_satellite_at_a_time(self, grid):
        visibility = _always_visible(1, 3, 10)
        result = DownlinkScheduler(visibility, grid).run()
        # Each step serves exactly one of the three satellites.
        assert np.all(result.assignment[0] >= 0)

    def test_satellite_not_double_served(self, grid):
        """Two stations never serve the same satellite at the same step."""
        visibility = _always_visible(2, 1, 10)
        result = DownlinkScheduler(
            visibility, grid, generation_rate_mbps=1000.0
        ).run()
        served_at_step = result.assignment >= 0
        # Station 1 can never claim the single satellite station 0 took.
        assert served_at_step[0].all()
        assert not served_at_step[1].any()

    def test_station_utilization(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, :5] = True
        result = DownlinkScheduler(visibility, grid).run()
        assert result.station_busy_fraction[0] == pytest.approx(0.5)

    def test_validation(self, grid):
        with pytest.raises(ValueError, match=r"\(S, N, T\)"):
            DownlinkScheduler(np.zeros((2, 2), dtype=bool), grid)
        with pytest.raises(ValueError, match="steps"):
            DownlinkScheduler(np.zeros((1, 1, 5), dtype=bool), grid)
        with pytest.raises(ValueError, match="downlink rate"):
            DownlinkScheduler(
                _always_visible(1, 1, 10), grid, downlink_rate_mbps=0.0
            )
        with pytest.raises(ValueError, match="generation"):
            DownlinkScheduler(
                _always_visible(1, 2, 10), grid,
                generation_rate_mbps=np.array([1.0, -1.0]),
            )


class TestPolicies:
    def test_max_backlog_prefers_fuller_buffer(self, grid):
        visibility = _always_visible(1, 2, 10)
        result = DownlinkScheduler(
            visibility,
            grid,
            downlink_rate_mbps=5.0,
            generation_rate_mbps=np.array([100.0, 1.0]),
            policy=SchedulingPolicy.MAX_BACKLOG,
        ).run()
        # The hot satellite monopolizes the antenna.
        assert np.all(result.assignment[0] == 0)

    def test_round_robin_rotates(self, grid):
        visibility = _always_visible(1, 3, 10)
        result = DownlinkScheduler(
            visibility,
            grid,
            downlink_rate_mbps=1.0,  # Never drains: all stay candidates.
            generation_rate_mbps=10.0,
            policy=SchedulingPolicy.ROUND_ROBIN,
        ).run()
        served = result.assignment[0]
        # All three satellites get turns.
        assert set(served.tolist()) == {0, 1, 2}

    def test_round_robin_fairer_than_first_visible(self, grid):
        visibility = _always_visible(1, 4, 10)
        outcomes = compare_policies(
            visibility, grid, downlink_rate_mbps=20.0, generation_rate_mbps=50.0
        )
        assert (
            outcomes[SchedulingPolicy.ROUND_ROBIN].fairness_index()
            >= outcomes[SchedulingPolicy.FIRST_VISIBLE].fairness_index()
        )

    def test_max_backlog_maximizes_throughput_under_skew(self, grid):
        """With skewed generation, draining the fullest buffer downloads at
        least as much as naive first-visible."""
        rng = np.random.default_rng(1)
        visibility = rng.random((2, 6, 10)) > 0.4
        generation = np.array([200.0, 5.0, 5.0, 5.0, 5.0, 5.0])
        outcomes = compare_policies(
            visibility, grid, downlink_rate_mbps=100.0,
            generation_rate_mbps=generation,
        )
        assert (
            outcomes[SchedulingPolicy.MAX_BACKLOG].total_downlinked_megabits
            >= outcomes[SchedulingPolicy.FIRST_VISIBLE].total_downlinked_megabits
            - 1e-9
        )

    def test_fairness_index_bounds(self, grid):
        visibility = _always_visible(1, 3, 10)
        for policy in SchedulingPolicy:
            result = DownlinkScheduler(
                visibility, grid, policy=policy
            ).run()
            assert 0.0 <= result.fairness_index() <= 1.0 + 1e-12


class TestHandComputedAllocations:
    """Every number below is worked by hand from the decision rules.

    One station, two satellites, four 10-second steps: sat 0 visible at
    steps 0-2, sat 1 at steps 2-3.  Generation 1 Mbps, downlink 2 Mbps.
    """

    GRID = TimeGrid(duration_s=40.0, step_s=10.0)

    def _run(self, policy):
        visibility = np.array([[[1, 1, 1, 0], [0, 0, 1, 1]]], dtype=bool)
        return DownlinkScheduler(
            visibility, self.GRID, downlink_rate_mbps=2.0,
            generation_rate_mbps=1.0, policy=policy,
        ).run()

    def test_max_backlog(self):
        result = self._run(SchedulingPolicy.MAX_BACKLOG)
        # t=0: only sat0 visible, drain 10.  t=10: same.  t=20: both
        # visible, sat1's backlog (30) beats sat0's (10) -> sat1 drains
        # the rate cap 20.  t=30: only sat1, drains 20.
        assert result.assignment.tolist() == [[0, 0, 1, 1]]
        assert result.downlinked_megabits.tolist() == [20.0, 40.0]
        assert result.remaining_backlog_megabits.tolist() == [20.0, 0.0]

    def test_first_visible(self):
        result = self._run(SchedulingPolicy.FIRST_VISIBLE)
        # t=20: candidates [0, 1] -> lowest index wins (sat0), so sat1
        # only ever drains at t=30.
        assert result.assignment.tolist() == [[0, 0, 0, 1]]
        assert result.downlinked_megabits.tolist() == [30.0, 20.0]
        assert result.remaining_backlog_megabits.tolist() == [10.0, 20.0]

    def test_round_robin(self):
        result = self._run(SchedulingPolicy.ROUND_ROBIN)
        # Cursor advances past sat0 after t=0; at t=20 the rotation picks
        # sat1 even though sat0 is also a candidate.
        assert result.assignment.tolist() == [[0, 0, 1, 1]]
        assert result.downlinked_megabits.tolist() == [20.0, 40.0]
        assert result.remaining_backlog_megabits.tolist() == [20.0, 0.0]

    def test_conservation(self):
        for policy in SchedulingPolicy:
            result = self._run(policy)
            np.testing.assert_allclose(
                result.generated_megabits,
                result.downlinked_megabits + result.remaining_backlog_megabits,
            )

    def test_station_busy_fraction(self):
        result = self._run(SchedulingPolicy.MAX_BACKLOG)
        assert result.station_busy_fraction.tolist() == [1.0]

    def test_compare_policies_runs_every_policy(self):
        visibility = np.array([[[1, 1, 1, 0], [0, 0, 1, 1]]], dtype=bool)
        outcomes = compare_policies(
            visibility, self.GRID, downlink_rate_mbps=2.0, generation_rate_mbps=1.0
        )
        assert set(outcomes) == set(SchedulingPolicy)
        for policy, result in outcomes.items():
            assert np.array_equal(result.assignment, self._run(policy).assignment)
