"""Traffic workload generation.

Terminals demand capacity over time.  The bent-pipe engine takes one
:class:`DemandModel` per terminal; :class:`ConstantDemand` is the
always-on terminal (the coverage experiments' implicit model: a terminal
wants service whenever a satellite is visible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.sim.clock import TimeGrid


class DemandModel(Protocol):
    """A workload: produces a per-time-step demand mask/level for a terminal."""

    def demand_mbps(self, grid: TimeGrid, rng: np.random.Generator) -> np.ndarray:
        """Return a (T,) array of demanded rate at each time step."""
        ...


@dataclass(frozen=True)
class ConstantDemand:
    """Always-on demand at a fixed rate."""

    rate_mbps: float = 100.0

    def __post_init__(self) -> None:
        if self.rate_mbps < 0.0:
            raise ValueError(f"rate must be non-negative, got {self.rate_mbps}")

    def demand_mbps(self, grid: TimeGrid, rng: np.random.Generator) -> np.ndarray:
        return np.full(grid.count, self.rate_mbps)
