"""Ablation — downlink scheduling policies on a rented GSaaS ground segment.

An MP-LEO party's feeder problem: 60 satellites carrying its traffic, four
rented GSaaS antennas, each able to track one satellite at a time.  Compares
the antenna-assignment policies on delivered volume and fairness.
"""

import numpy as np

from repro.analysis.reporting import Table
from repro.constellation.sampling import sample_constellation
from repro.experiments.common import starlink_pool
from repro.ground.gsaas import GroundStationPool
from repro.sim.clock import TimeGrid
from repro.sim.scheduling import SchedulingPolicy, compare_policies
from repro.sim.visibility import VisibilityEngine

FLEET = 60
ANTENNAS = ("seoul", "sydney", "ireland", "ohio")


def _run(config):
    rng = config.rng(salt=109)
    constellation = sample_constellation(starlink_pool(), FLEET, rng)
    pool = GroundStationPool()
    stations = [pool.rent("party", site) for site in ANTENNAS]
    grid = TimeGrid.hours(24.0, step_s=config.step_s)
    visibility = VisibilityEngine(grid).visibility(constellation, stations)
    return compare_policies(
        visibility, grid, downlink_rate_mbps=800.0, generation_rate_mbps=20.0
    )


def test_ablation_scheduling(bench_config, report):
    outcomes = _run(bench_config)

    table = Table(
        f"Ablation: downlink scheduling ({FLEET} satellites, "
        f"{len(ANTENNAS)} GSaaS antennas, 24 h)",
        ["policy", "delivered %", "fairness (Jain)", "antenna busy %"],
        precision=3,
    )
    for policy, result in outcomes.items():
        table.add_row(
            policy.value,
            100.0 * result.delivery_fraction,
            result.fairness_index(),
            100.0 * float(result.station_busy_fraction.mean()),
        )
    report(table)

    max_backlog = outcomes[SchedulingPolicy.MAX_BACKLOG]
    first_visible = outcomes[SchedulingPolicy.FIRST_VISIBLE]
    # Backlog-aware scheduling delivers at least as much as the naive policy.
    assert (
        max_backlog.total_downlinked_megabits
        >= first_visible.total_downlinked_megabits - 1e-6
    )
    # Every policy respects conservation.
    for result in outcomes.values():
        np.testing.assert_allclose(
            result.generated_megabits,
            result.downlinked_megabits + result.remaining_backlog_megabits,
        )
