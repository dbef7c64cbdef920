"""Fig. 5 — coverage loss when half of a constellation denies service.

Paper methodology (§3.4): start from a base of L satellites (L in
{200, 500, 1000, 2000}); withdraw a random L/2 of them; report the reduction
in (population-weighted) coverage over one week, averaged over runs.

Paper anchors: L=200 loses 24.17% of coverage time (1 day 16 hours);
L=2000 loses only 0.37% — robustness grows with constellation size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    withdrawal_losses,
)
from repro.runner import PointContext, Scenario, draw_subsets, run_scenario

DEFAULT_SIZES: Sequence[int] = (200, 500, 1000, 2000)


@dataclass(frozen=True)
class Fig5Point:
    satellites: int
    mean_reduction_percent: float
    std_reduction_percent: float
    mean_lost_hours: float


@dataclass(frozen=True)
class Fig5Result:
    points: List[Fig5Point]
    config: ExperimentConfig


@dataclass
class Fig5Scenario(Scenario):
    """Coverage reduction when a random fraction of a base withdraws."""

    sizes: Sequence[int] = DEFAULT_SIZES
    withdraw_fraction: float = 0.5

    name = "fig5"
    salt = 5

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[int]:
        if not 0.0 < self.withdraw_fraction < 1.0:
            raise ValueError(
                f"withdraw fraction must be in (0, 1), got {self.withdraw_fraction}"
            )
        pool_size = len(context.pool())
        for size in self.sizes:
            if not 1 <= size <= pool_size:
                raise ValueError(f"size {size} is outside [1, {pool_size}]")
        return list(self.sizes)

    def run_batch(
        self, ctx: PointContext, rngs: Sequence[np.random.Generator]
    ) -> List[float]:
        withdraw = int(round(self.withdraw_fraction * ctx.point))
        # The head of each run's random permutation withdraws; the rest stay.
        orders = draw_subsets(rngs, ctx.pool_size(), ctx.point, permute=True)
        return withdrawal_losses(ctx.store(), orders, withdraw)

    def reduce(
        self,
        point: int,
        point_index: int,
        samples: List[float],
        config: ExperimentConfig,
    ) -> Fig5Point:
        reductions = np.array(samples)
        horizon_hours = config.grid().duration_s / 3600.0
        return Fig5Point(
            satellites=point,
            mean_reduction_percent=float(100.0 * reductions.mean()),
            std_reduction_percent=float(100.0 * reductions.std()),
            mean_lost_hours=float(reductions.mean() * horizon_hours),
        )

    def finalize(
        self, reduced: List[Fig5Point], config: ExperimentConfig
    ) -> Fig5Result:
        return Fig5Result(points=reduced, config=config)


def run_fig5(
    config: ExperimentConfig = ExperimentConfig(),
    sizes: Sequence[int] = DEFAULT_SIZES,
    withdraw_fraction: float = 0.5,
) -> Fig5Result:
    """Run the Fig. 5 sweep (see :class:`Fig5Scenario`)."""
    return run_scenario(
        Fig5Scenario(sizes=sizes, withdraw_fraction=withdraw_fraction), config
    )
