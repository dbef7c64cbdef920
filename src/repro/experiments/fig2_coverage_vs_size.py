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

from repro.analysis.gaps import gap_timeline_events, gap_timeline_events_from_intervals
from repro.experiments.common import (
    ALL_SITES,
    ExperimentConfig,
    ExperimentContext,
    TAIPEI_INDEX,
)
from repro.runner import RunContext, Scenario, run_scenario
from repro.sim.contacts import contact_events
from repro.sim.coverage import gap_lengths_s
from repro.sim.intervals import ContactIntervals

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

    def uncovered_percent_series(self) -> List[Tuple[int, float]]:
        return [(p.satellites, p.mean_uncovered_percent) for p in self.points]


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
        # The subset draw happens before the store-type branch, so both
        # engines evaluate identical satellite samples.  The branch stays
        # because the Taipei timeline takes a different form per store: an
        # analytic IntervalSet on intervals, a sampled mask on the grid.
        indices = ctx.rng.choice(ctx.pool_size(), size=ctx.point, replace=False)
        store = ctx.store()
        if isinstance(store, ContactIntervals):
            union = store.site_union(TAIPEI_INDEX, indices)
            uncovered = 100.0 * (1.0 - union.coverage_fraction)
            gaps = union.gap_lengths_s()
            max_gap = float(gaps.max()) if gaps.size else 0.0
            if run_index == 0:
                _narrate_run_intervals(
                    store, indices, union, ctx.context.pool(ctx.pool_seed)
                )
            return (float(uncovered), max_gap)
        mask = store.site_mask(TAIPEI_INDEX, indices)
        uncovered = 100.0 * (1.0 - mask.mean())
        gaps = gap_lengths_s(mask, ctx.config.grid().step_s)
        max_gap = float(gaps.max()) if gaps.size else 0.0
        if run_index == 0:
            _narrate_run(
                store, indices, mask, ctx.config.grid(),
                ctx.context.pool(ctx.pool_seed),
            )
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


def _narrate_run(visibility, indices, mask, grid, pool) -> None:
    """Emit timeline events describing one Monte-Carlo run.

    Gap open/close events come from the union Taipei mask; contact windows
    come from the first :data:`MAX_TRACED_SATELLITES` satellites of the
    sampled subset that are ever visible from Taipei.  Those are found
    from the packed bytes (padding bits are zero, so a row has a set bit
    exactly when the satellite is visible at some sample), and only
    their rows are unpacked: a 2 000-satellite subset's masks are ~10 MB.
    """
    site_name = ALL_SITES[TAIPEI_INDEX].name
    gap_timeline_events(mask, grid.step_s, site=site_name)
    rows = visibility.by_satellite[indices, TAIPEI_INDEX]  # (n, B) packed
    active = np.flatnonzero(rows.any(axis=1))[:MAX_TRACED_SATELLITES]
    if active.size == 0:
        return
    traced = indices[active]
    sat_masks = visibility.satellite_masks(traced, [TAIPEI_INDEX])
    sat_ids = [pool[int(sat)].sat_id for sat in traced]
    contact_events(sat_masks[None, :, :], [site_name], sat_ids, grid)


def _narrate_run_intervals(
    contacts: ContactIntervals, indices, union, pool
) -> None:
    """Intervals-engine narration: same events, analytic edge times."""
    site_name = ALL_SITES[TAIPEI_INDEX].name
    gap_timeline_events_from_intervals(union, site=site_name)
    traced: List[int] = []
    for sat in indices:
        if contacts.pair_count(TAIPEI_INDEX, int(sat)):
            traced.append(int(sat))
            if len(traced) == MAX_TRACED_SATELLITES:
                break
    if not traced:
        return
    contact_events_from_intervals_subset(contacts, traced, site_name, pool)


def contact_events_from_intervals_subset(
    contacts: ContactIntervals, sat_indices, site_name: str, pool
) -> None:
    """Narrate the traced satellites' Taipei windows onto the timeline."""
    from repro.sim.events import ContactEvent
    from repro.sim.contacts import _narrate_events

    events = []
    for sat in sat_indices:
        rises, falls, t_start, t_end = contacts.pair_windows(TAIPEI_INDEX, sat)
        sat_id = pool[int(sat)].sat_id
        events.extend(
            ContactEvent(
                site_name, sat_id, float(rise), float(fall),
                truncated=bool(ts or te),
            )
            for rise, fall, ts, te in zip(rises, falls, t_start, t_end)
        )
    events.sort(key=lambda event: (event.start_s, event.site_name, event.sat_id))
    _narrate_events(events)
