"""Ablation — bent pipe vs inter-satellite links (§3.1 vs §4).

The paper's baseline architecture requires a satellite to see the user
terminal *and* a same-party ground station simultaneously; §4 proposes ISLs
as future work.  This ablation measures what ISLs buy: coverage at Taipei
with a deliberately sparse ground segment (two stations), with and without
ISL forwarding.
"""

from repro.analysis.reporting import Table
from repro.constellation.sampling import sample_constellation
from repro.experiments.common import starlink_pool
from repro.ground.cities import TAIPEI
from repro.ground.sites import GroundStation
from repro.links.isl import isl_visibility, relayable_with_isl
from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine

SAMPLE_SIZE = 300
STATIONS = (
    GroundStation("gs-ireland", 53.35, -6.26, min_elevation_deg=10.0),
    GroundStation("gs-oregon", 45.52, -122.68, min_elevation_deg=10.0),
)


def _run(config):
    grid = TimeGrid.hours(24.0, step_s=300.0)
    engine = VisibilityEngine(grid)
    rng = config.rng(salt=103)
    constellation = sample_constellation(starlink_pool(), SAMPLE_SIZE, rng)

    terminal = TAIPEI.terminal()
    terminal_vis = engine.visibility(constellation, [terminal])[0]  # (N, T)
    station_vis = engine.visibility(constellation, list(STATIONS)).any(axis=0)

    propagator = BatchPropagator(constellation.elements)
    times = grid.times_s
    positions = propagator.positions_eci(times)  # (N, T, 3)

    bent_pipe_covered = 0
    isl_covered = 0
    for step in range(times.size):
        term = terminal_vis[:, step]
        stat = station_vis[:, step]
        if (term & stat).any():
            bent_pipe_covered += 1
            isl_covered += 1
            continue
        if not term.any():
            continue
        feasible = isl_visibility(positions[:, step, :])
        if relayable_with_isl(term, stat, feasible).any():
            isl_covered += 1

    total = times.size
    return {
        "terminal_only": float(terminal_vis.any(axis=0).mean()),
        "bent_pipe": bent_pipe_covered / total,
        "isl": isl_covered / total,
    }


def test_ablation_isl(bench_config, report):
    coverage = _run(bench_config)

    table = Table(
        f"Ablation: bent pipe vs ISL forwarding at Taipei "
        f"({SAMPLE_SIZE} satellites, 2 distant gateways, 24 h)",
        ["architecture", "covered fraction"],
        precision=3,
    )
    table.add_row("satellite overhead (upper bound)", coverage["terminal_only"])
    table.add_row("bent pipe (paper baseline)", coverage["bent_pipe"])
    table.add_row("bent pipe + ISL forwarding", coverage["isl"])
    report(table)

    # ISLs can only help, and are bounded by raw satellite visibility.
    assert coverage["bent_pipe"] <= coverage["isl"] <= coverage["terminal_only"]
    # With only two distant gateways, ISLs recover a large part of the gap
    # between the bent-pipe baseline and the visibility upper bound.
    gap = coverage["terminal_only"] - coverage["bent_pipe"]
    recovered = coverage["isl"] - coverage["bent_pipe"]
    if gap > 0.05:
        assert recovered > 0.3 * gap
