"""Simulation time grids.

Simulation time is seconds from an arbitrary epoch.  A :class:`TimeGrid` is
the uniform sampling used by the coverage engine; the paper's experiments run
over one week ("We quantify the coverage gap across one week").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.constants import DEFAULT_TIME_STEP_S, WEEK_S


@dataclass(frozen=True)
class TimeGrid:
    """A uniform grid of simulation times.

    Attributes:
        start_s: First sample time (inclusive), seconds.
        duration_s: Total span; samples cover [start_s, start_s + duration_s).
        step_s: Sample spacing, seconds.
        gmst_at_epoch_rad: Earth orientation (GMST) at simulation time 0.
    """

    start_s: float = 0.0
    duration_s: float = WEEK_S
    step_s: float = DEFAULT_TIME_STEP_S
    gmst_at_epoch_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and math.isfinite(self.step_s)):
            raise ValueError(
                f"duration and step must be finite, got duration "
                f"{self.duration_s} and step {self.step_s}"
            )
        if self.duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.step_s <= 0.0:
            raise ValueError(f"step must be positive, got {self.step_s}")
        if self.step_s > self.duration_s:
            raise ValueError(
                f"step ({self.step_s}) exceeds duration ({self.duration_s})"
            )

    @classmethod
    def one_week(cls, step_s: float = DEFAULT_TIME_STEP_S) -> "TimeGrid":
        """The paper's standard horizon: one week."""
        return cls(duration_s=WEEK_S, step_s=step_s)

    @classmethod
    def hours(cls, hours: float, step_s: float = DEFAULT_TIME_STEP_S) -> "TimeGrid":
        """A grid spanning a number of hours."""
        return cls(duration_s=hours * 3600.0, step_s=step_s)

    @property
    def count(self) -> int:
        """Number of samples."""
        return int(np.floor(self.duration_s / self.step_s + 1e-9))

    @property
    def times_s(self) -> np.ndarray:
        """All sample times as a 1-D float array."""
        return self.start_s + self.step_s * np.arange(self.count, dtype=np.float64)

    def chunks(self, chunk_size: int) -> Iterator[np.ndarray]:
        """Yield the sample times in consecutive chunks of at most chunk_size."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        times = self.times_s
        for begin in range(0, times.size, chunk_size):
            yield times[begin : begin + chunk_size]
