"""Fig. 4b — impact of phase placement between existing satellites.

Paper methodology (§3.3): an imaginary constellation of 12 satellites, each
30 degrees apart in one orbital plane (53 degree inclination, 546 km); add a
satellite at 29 positions between two of the original satellites, spaced
about 1 degree apart in phase; report the coverage improvement vs the
original 12.

Paper anchor: the midpoint (15 degrees from each neighbour) maximizes the
improvement — the farthest point from existing satellites wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constellation.design import (
    fig4b_base_constellation,
    phase_sweep_candidates,
)
from repro.core.placement import PlacementScorer
from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.ground.cities import CITIES
from repro.runner import RunContext, Scenario, run_scenario


@dataclass(frozen=True)
class Fig4bPoint:
    phase_offset_deg: float
    gain_hours: float


@dataclass(frozen=True)
class Fig4bResult:
    points: List[Fig4bPoint]
    config: ExperimentConfig

    def best_offset_deg(self) -> float:
        return max(self.points, key=lambda p: p.gain_hours).phase_offset_deg


@dataclass
class Fig4bScenario(Scenario):
    """Deterministic phase sweep: one sweep point, one run, no pool.

    The :class:`~repro.core.placement.PlacementScorer` scores every phase
    candidate against the 12-satellite base in one vectorized pass, so the
    whole sweep is a single kernel invocation rather than one per candidate.
    """

    positions: int = 29

    name = "fig4b"
    uses_pool = False

    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[int]:
        if self.positions < 1:
            raise ValueError(f"positions must be >= 1, got {self.positions}")
        return [self.positions]

    def runs_for(self, point: int, config: ExperimentConfig) -> int:
        return 1  # Deterministic: no Monte-Carlo repetition.

    def run_one(self, ctx: RunContext, run_index: int) -> List[float]:
        base = fig4b_base_constellation()
        candidates = phase_sweep_candidates(
            base[0].elements, gap_deg=30.0, positions=ctx.point
        )
        scorer = PlacementScorer(
            base, ctx.config.grid(), cities=CITIES, context=ctx.context
        )
        scored = scorer.score(candidates)
        return [candidate.coverage_gain_hours for candidate in scored]

    def reduce(
        self,
        point: int,
        point_index: int,
        samples: List[List[float]],
        config: ExperimentConfig,
    ) -> List[Fig4bPoint]:
        (gains,) = samples
        step = 30.0 / (point + 1)
        return [
            Fig4bPoint(phase_offset_deg=step * (index + 1), gain_hours=gain)
            for index, gain in enumerate(gains)
        ]

    def finalize(
        self, reduced: List[List[Fig4bPoint]], config: ExperimentConfig
    ) -> Fig4bResult:
        (points,) = reduced
        return Fig4bResult(points=points, config=config)


def run_fig4b(
    config: ExperimentConfig = ExperimentConfig(),
    positions: int = 29,
) -> Fig4bResult:
    """Run the Fig. 4b phase sweep (see :class:`Fig4bScenario`)."""
    return run_scenario(Fig4bScenario(positions=positions), config)
