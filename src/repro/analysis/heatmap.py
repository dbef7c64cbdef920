"""Global coverage grids (the §3 "global coverage" goal, measured).

The city-weighted metric drives the paper's experiments, but the design
goal is stated as *global* coverage.  This module evaluates coverage over a
latitude/longitude grid with proper spherical area weighting, giving:

* the area-weighted fraction of Earth's surface with coverage,
* per-latitude-band coverage (exposing the inclination-band structure of
  Walker constellations),
* an ASCII rendering for quick inspection without plotting libraries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_MIN_ELEVATION_DEG
from repro.ground.sites import GroundSite
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine


@dataclass(frozen=True)
class CoverageGrid:
    """Coverage fractions over a lat/lon grid.

    Attributes:
        latitudes_deg: (R,) grid-cell center latitudes, north to south.
        longitudes_deg: (C,) grid-cell center longitudes, west to east.
        covered_fraction: (R, C) fraction of the horizon each cell had
            at least one satellite above the elevation mask.
    """

    latitudes_deg: np.ndarray
    longitudes_deg: np.ndarray
    covered_fraction: np.ndarray

    def area_weights(self) -> np.ndarray:
        """(R,) spherical area weight of each latitude row (sums to 1)."""
        weights = np.cos(np.radians(self.latitudes_deg))
        return weights / weights.sum()

    @property
    def global_coverage_fraction(self) -> float:
        """Area-weighted mean coverage over the whole grid."""
        row_means = self.covered_fraction.mean(axis=1)
        return float(self.area_weights() @ row_means)

    def band_coverage(self) -> List[Tuple[float, float]]:
        """(latitude, mean coverage) per grid row, north to south."""
        return [
            (float(lat), float(row.mean()))
            for lat, row in zip(self.latitudes_deg, self.covered_fraction)
        ]

    def render_ascii(self) -> str:
        """Render the grid as characters: ' .:-=+*#%@' from 0 to full."""
        ramp = " .:-=+*#%@"
        lines = []
        for row in self.covered_fraction:
            indices = np.minimum(
                (row * len(ramp)).astype(int), len(ramp) - 1
            )
            lines.append("".join(ramp[index] for index in indices))
        return "\n".join(lines)


def compute_coverage_grid(
    constellation,
    grid: TimeGrid,
    lat_step_deg: float = 15.0,
    lon_step_deg: float = 15.0,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
    chunk_size: Optional[int] = None,
) -> CoverageGrid:
    """Evaluate a constellation's coverage over a global grid.

    Grid points sit at cell centers; poles are excluded by construction
    (centers at ±(90 - lat_step/2) at most).

    Raises:
        ValueError: On non-positive grid steps.
    """
    if lat_step_deg <= 0.0 or lon_step_deg <= 0.0:
        raise ValueError("grid steps must be positive")
    latitudes = np.arange(90.0 - lat_step_deg / 2.0, -90.0, -lat_step_deg)
    longitudes = np.arange(-180.0 + lon_step_deg / 2.0, 180.0, lon_step_deg)

    sites = [
        GroundSite(
            name=f"grid-{row}-{col}",
            latitude_deg=float(lat),
            longitude_deg=float(lon),
            min_elevation_deg=min_elevation_deg,
        )
        for row, lat in enumerate(latitudes)
        for col, lon in enumerate(longitudes)
    ]
    engine = VisibilityEngine(grid, chunk_size=chunk_size)
    masks = engine.site_coverage(constellation, sites)  # (R*C, T)
    fractions = masks.mean(axis=1).reshape(latitudes.size, longitudes.size)
    return CoverageGrid(
        latitudes_deg=latitudes,
        longitudes_deg=longitudes,
        covered_fraction=fractions,
    )


def coverage_equity(grid_result: CoverageGrid) -> float:
    """Jain's fairness index of per-cell coverage, area-weighted.

    1.0 = perfectly even global coverage; 1/n = all coverage concentrated in
    one cell.  A decentralization-relevant metric: region-specific designs
    score poorly.
    """
    weights = np.repeat(
        grid_result.area_weights()[:, None],
        grid_result.longitudes_deg.size,
        axis=1,
    ).ravel()
    weights = weights / weights.sum()
    values = grid_result.covered_fraction.ravel()
    mean = float(weights @ values)
    second_moment = float(weights @ values**2)
    if second_moment == 0.0:
        return 1.0
    return mean**2 / second_moment
