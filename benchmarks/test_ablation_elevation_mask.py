"""Ablation — sensitivity of Fig. 2-style coverage to the elevation mask.

Every figure in the paper hides a terminal elevation-mask assumption.  This
ablation quantifies it: the same 500-satellite sample is evaluated at
Taipei under 10/25/40-degree masks.  A 10-degree mask roughly triples the
footprint area of a 25-degree mask, so uncovered time collapses; a
40-degree mask shrinks it sharply.
"""

import numpy as np


from repro.analysis.reporting import Table
from repro.constellation.sampling import sample_constellation
from repro.experiments.common import starlink_pool
from repro.ground.cities import TAIPEI
from repro.sim.coverage import coverage_stats
from repro.sim.visibility import VisibilityEngine

MASKS_DEG = (10.0, 25.0, 40.0)
SAMPLE_SIZE = 500


def _run(config):
    grid = config.grid()
    engine = VisibilityEngine(grid)
    pool = starlink_pool()
    sites = [TAIPEI.terminal(min_elevation_deg=mask) for mask in MASKS_DEG]
    rows = []
    rng = config.rng(salt=100)
    uncovered = {mask: [] for mask in MASKS_DEG}
    for _ in range(max(3, config.runs // 4)):
        subset = sample_constellation(pool, SAMPLE_SIZE, rng)
        masks = engine.site_coverage(subset, sites)
        for mask, coverage in zip(MASKS_DEG, masks):
            stats = coverage_stats(coverage, grid.step_s)
            uncovered[mask].append(stats.uncovered_percent)
    for mask in MASKS_DEG:
        rows.append((mask, float(np.mean(uncovered[mask]))))
    return rows


def test_ablation_elevation_mask(bench_config, report):
    rows = _run(bench_config)

    table = Table(
        f"Ablation: uncovered % at Taipei vs elevation mask "
        f"({SAMPLE_SIZE} satellites, 1 week)",
        ["mask (deg)", "uncovered %"],
        precision=2,
    )
    for mask, value in rows:
        table.add_row(mask, value)
    report(table)

    by_mask = dict(rows)
    # Coverage strictly degrades as the mask tightens.
    assert by_mask[10.0] < by_mask[25.0] < by_mask[40.0]
    # The effect is large: the mask is a first-order hidden parameter.
    assert by_mask[40.0] > 2.0 * by_mask[10.0]
