"""Fig. 2 — percentage of time without coverage vs constellation size.

Paper methodology (§2): a receiver at a central location in Taipei; one
simulated week; in each run, randomly sample N satellites from the Starlink
network; report the mean percentage of time with no satellite visible.

Paper anchors: with 100 satellites the user has no coverage >50% of the time
with continuous gaps over an hour; >=1000 satellites reach 99.5% coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.gaps import gap_timeline_events
from repro.experiments.common import (
    ALL_SITES,
    ExperimentConfig,
    ExperimentContext,
    TAIPEI_INDEX,
)
from repro.runner import RunContext, Scenario, run_scenario
from repro.sim.contacts import narrate_contacts

#: Constellation sizes swept by default (the figure's x axis).
DEFAULT_SIZES: Sequence[int] = (1, 10, 50, 100, 200, 500, 1000, 2000)

#: Satellite tracks narrated onto the event timeline per swept size.  Only
#: the first Monte-Carlo run of each size is narrated, and only this many
#: of its visible satellites — enough to inspect a trace without flooding
#: the ring buffer across an 8-point sweep.
MAX_TRACED_SATELLITES = 8


@dataclass(frozen=True)
class Fig2Point:
    """One x-axis point of Fig. 2, aggregated over runs."""

    satellites: int
    mean_uncovered_percent: float
    std_uncovered_percent: float
    mean_max_gap_s: float
    max_max_gap_s: float


@dataclass(frozen=True)
class Fig2Result:
    points: List[Fig2Point]
    config: ExperimentConfig


@dataclass
class Fig2Scenario(Scenario):
    """Taipei coverage vs sampled constellation size.

    Each run reduces the Taipei row of the shared contact store over a
    random satellite subset.  The first run of each size is also
    narrated onto the simulation timeline (coverage gaps at Taipei plus
    per-satellite contact windows for a bounded satellite subset), so
    ``--trace-out`` captures inspectable tracks from a figure run.
    """

    sizes: Sequence[int] = DEFAULT_SIZES

    name = "fig2"
    salt = 2

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[int]:
        pool_size = len(context.pool())
        for size in self.sizes:
            if size > pool_size:
                raise ValueError(f"size {size} exceeds pool of {pool_size}")
        return list(self.sizes)

    def run_one(self, ctx: RunContext, run_index: int) -> Tuple[float, float]:
        indices = ctx.rng.choice(ctx.pool_size(), size=ctx.point, replace=False)
        store = ctx.store()
        union = store.site_union(TAIPEI_INDEX, indices)
        uncovered = 100.0 * (1.0 - union.coverage_fraction)
        gaps = union.gap_lengths_s()
        max_gap = float(gaps.max()) if gaps.size else 0.0
        if run_index == 0:
            _narrate_run(store, indices, union, ctx.context.pool(ctx.pool_seed))
        return (float(uncovered), max_gap)

    def reduce(
        self,
        point: int,
        point_index: int,
        samples: List[Tuple[float, float]],
        config: ExperimentConfig,
    ) -> Fig2Point:
        uncovered = np.array([sample[0] for sample in samples])
        max_gaps = np.array([sample[1] for sample in samples])
        return Fig2Point(
            satellites=point,
            mean_uncovered_percent=float(uncovered.mean()),
            std_uncovered_percent=float(uncovered.std()),
            mean_max_gap_s=float(max_gaps.mean()),
            max_max_gap_s=float(max_gaps.max()),
        )

    def finalize(
        self, reduced: List[Fig2Point], config: ExperimentConfig
    ) -> Fig2Result:
        return Fig2Result(points=reduced, config=config)


def run_fig2(
    config: ExperimentConfig = ExperimentConfig(),
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Fig2Result:
    """Run the Fig. 2 sweep (see :class:`Fig2Scenario`)."""
    return run_scenario(Fig2Scenario(sizes=sizes), config)


def _narrate_run(store, indices, union, pool) -> None:
    """Emit timeline events describing one Monte-Carlo run.

    Gap open/close events come from the Taipei coverage ``union``; contact
    windows come from the first :data:`MAX_TRACED_SATELLITES` satellites
    of the sampled subset that are ever visible from Taipei.
    """
    site_name = ALL_SITES[TAIPEI_INDEX].name
    gap_timeline_events(union, site=site_name)
    traced = []
    for sat in indices:
        windows = store.pair_windows(TAIPEI_INDEX, int(sat))
        if windows[0].size:
            traced.append((pool.sat_ids[int(sat)], windows))
            if len(traced) == MAX_TRACED_SATELLITES:
                break
    narrate_contacts(site_name, traced)
