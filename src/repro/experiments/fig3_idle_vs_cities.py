"""Fig. 3 — satellite idle time vs number of cities served.

Paper methodology (§2): place user terminals in 1..21 cities (the top-20
most populated cities, one per country, plus Melbourne); a satellite is idle
when no terminal is inside its footprint; report mean idle time.

Paper anchors: serving one major city leaves each satellite idle ~99% of the
time; idle time decreases as cities are added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.experiments.common import (
    CITY_INDICES,
    ExperimentConfig,
    ExperimentContext,
)
from repro.runner import PointContext, Scenario, draw_subsets, run_scenario


@dataclass(frozen=True)
class Fig3Point:
    cities: int
    mean_idle_percent: float
    std_idle_percent: float


@dataclass(frozen=True)
class Fig3Result:
    points: List[Fig3Point]
    config: ExperimentConfig


@dataclass
class Fig3Scenario(Scenario):
    """Satellite idle time vs the number of cities served.

    A satellite's idle time depends only on its own footprint vs the
    terminal set, so the random satellite sample just controls the averaging
    population; per run we sample ``sample_size`` satellites and average
    their idle fractions over terminals at the top-k cities.  A point's
    runs read their satellites' activity in one query.
    """

    city_counts: Sequence[int] = tuple(range(1, 22))
    sample_size: int = 500

    name = "fig3"
    salt = 3

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[int]:
        pool_size = len(context.pool())
        if not 1 <= self.sample_size <= pool_size:
            raise ValueError(
                f"sample_size {self.sample_size} is outside [1, {pool_size}]"
            )
        for count in self.city_counts:
            if not 1 <= count <= len(CITY_INDICES):
                raise ValueError(f"city count {count} out of range")
        return list(self.city_counts)

    def run_batch(
        self, ctx: PointContext, rngs: Sequence[np.random.Generator]
    ) -> List[float]:
        samples = draw_subsets(rngs, ctx.pool_size(), self.sample_size)
        active = ctx.context.satellite_activity(
            ctx.config,
            samples.reshape(-1),
            list(CITY_INDICES[: ctx.point]),
            ctx.pool_seed,
        )
        idle = 1.0 - active.reshape(samples.shape)
        return [float(100.0 * run.mean()) for run in idle]

    def reduce(
        self,
        point: int,
        point_index: int,
        samples: List[float],
        config: ExperimentConfig,
    ) -> Fig3Point:
        idle_means = np.array(samples)
        return Fig3Point(
            cities=point,
            mean_idle_percent=float(idle_means.mean()),
            std_idle_percent=float(idle_means.std()),
        )

    def finalize(
        self, reduced: List[Fig3Point], config: ExperimentConfig
    ) -> Fig3Result:
        return Fig3Result(points=reduced, config=config)


def run_fig3(
    config: ExperimentConfig = ExperimentConfig(),
    city_counts: Sequence[int] = tuple(range(1, 22)),
    sample_size: int = 500,
) -> Fig3Result:
    """Run the Fig. 3 sweep (see :class:`Fig3Scenario`)."""
    return run_scenario(
        Fig3Scenario(city_counts=city_counts, sample_size=sample_size), config
    )
