"""Fig. 6 — coverage loss when the largest party exits, vs contribution skew.

Paper methodology (§3.4): a 1000-satellite constellation shared by 11
parties with contribution ratios from equal (1:1:...:1) to highly skewed
(10:1:...:1); in each run the largest party withdraws its satellites; report
the reduction in coverage.

Paper anchors: equal contributions (91 satellites each) minimize the loss;
at 10:1 skew (one party holding 500 satellites) the loss is ~5.5% of the
week (10 hours of no coverage) — pronounced but still service-able.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.party import contribution_ratio_split
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    withdrawal_losses,
)
from repro.runner import PointContext, Scenario, draw_subsets, run_scenario

DEFAULT_SKEWS: Sequence[int] = tuple(range(1, 11))
DEFAULT_PARTIES = 11
DEFAULT_TOTAL = 1000


@dataclass(frozen=True)
class Fig6Point:
    skew: int  # Largest party's ratio (1 = equal ... 10 = 10:1:...:1).
    largest_party_satellites: int
    mean_reduction_percent: float
    std_reduction_percent: float
    mean_lost_hours: float


@dataclass(frozen=True)
class Fig6Result:
    points: List[Fig6Point]
    config: ExperimentConfig


@dataclass
class Fig6Scenario(Scenario):
    """Largest-party withdrawal loss vs contribution skew.

    Satellites are randomly attributed to parties per run, so the largest
    party's holdings are a random ``counts[0]``-subset — exactly the paper's
    random-attribution model.
    """

    skews: Sequence[int] = DEFAULT_SKEWS
    parties: int = DEFAULT_PARTIES
    total_satellites: int = DEFAULT_TOTAL

    name = "fig6"
    salt = 6

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[int]:
        if self.parties < 1:
            raise ValueError(f"parties must be >= 1, got {self.parties}")
        pool_size = len(context.pool())
        if not 1 <= self.total_satellites <= pool_size:
            raise ValueError(
                f"total {self.total_satellites} is outside [1, {pool_size}]"
            )
        return list(self.skews)

    def _largest_party_count(self, skew: int) -> int:
        ratios = [float(skew)] + [1.0] * (self.parties - 1)
        return contribution_ratio_split(self.total_satellites, ratios)[0]

    def run_batch(
        self, ctx: PointContext, rngs: Sequence[np.random.Generator]
    ) -> List[float]:
        largest = self._largest_party_count(ctx.point)
        # The first `largest` positions of each run's random permutation
        # are the largest party's satellites; the rest stay.
        orders = draw_subsets(
            rngs, ctx.pool_size(), self.total_satellites, permute=True
        )
        return withdrawal_losses(ctx.store(), orders, largest)

    def reduce(
        self,
        point: int,
        point_index: int,
        samples: List[float],
        config: ExperimentConfig,
    ) -> Fig6Point:
        reductions = np.array(samples)
        horizon_hours = config.grid().duration_s / 3600.0
        return Fig6Point(
            skew=point,
            largest_party_satellites=self._largest_party_count(point),
            mean_reduction_percent=float(100.0 * reductions.mean()),
            std_reduction_percent=float(100.0 * reductions.std()),
            mean_lost_hours=float(reductions.mean() * horizon_hours),
        )

    def finalize(
        self, reduced: List[Fig6Point], config: ExperimentConfig
    ) -> Fig6Result:
        return Fig6Result(points=reduced, config=config)


def run_fig6(
    config: ExperimentConfig = ExperimentConfig(),
    skews: Sequence[int] = DEFAULT_SKEWS,
    parties: int = DEFAULT_PARTIES,
    total_satellites: int = DEFAULT_TOTAL,
) -> Fig6Result:
    """Run the Fig. 6 sweep (see :class:`Fig6Scenario`)."""
    return run_scenario(
        Fig6Scenario(
            skews=skews, parties=parties, total_satellites=total_satellites
        ),
        config,
    )
