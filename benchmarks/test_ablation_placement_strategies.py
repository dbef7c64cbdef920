"""Ablation — placement strategies (§3.3's design choice, made explicit).

Compares three ways a party might deploy a fixed budget of satellites:

* gap-filling (the paper's incentive-aligned strategy),
* random sampling from a Starlink-like pool,
* clustering in a narrow phase window (the anti-pattern).

The paper's argument predicts gap-filling >= random >> clustered on
population-weighted coverage.
"""

from repro.analysis.reporting import Table
from repro.core.placement import (
    PlacementScorer,
    clustered_design,
    greedy_gap_filling_design,
    random_design,
)
from repro.experiments.common import starlink_pool
from repro.ground.cities import CITIES
from repro.sim.clock import TimeGrid

BUDGET = 12


def _run(config):
    grid = TimeGrid.one_week(step_s=max(config.step_s, 300.0))
    pool = starlink_pool()
    rng = config.rng(salt=101)

    designs = {
        "gap-filling": greedy_gap_filling_design(
            BUDGET, grid, rng, candidates_per_round=24
        ),
        "random": random_design(BUDGET, pool, rng),
        "clustered": clustered_design(BUDGET, rng, phase_spread_deg=10.0),
    }
    coverages = {
        name: PlacementScorer(design, grid, CITIES).base_fraction
        for name, design in designs.items()
    }
    return coverages


def test_ablation_placement_strategies(bench_config, report):
    coverages = _run(bench_config)

    table = Table(
        f"Ablation: weighted city coverage by placement strategy "
        f"({BUDGET} satellites, 1 week)",
        ["strategy", "weighted coverage"],
        precision=4,
    )
    for name, value in sorted(coverages.items(), key=lambda item: -item[1]):
        table.add_row(name, value)
    report(table)

    assert coverages["gap-filling"] >= coverages["random"]
    assert coverages["random"] > coverages["clustered"]
    # Clustering wastes most of the budget (the paper's warning).
    assert coverages["gap-filling"] > 1.5 * coverages["clustered"]
