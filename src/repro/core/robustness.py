"""Withdrawal and robustness analysis (§3.4).

Quantifies how much coverage an MP-LEO constellation loses when participants
deny service or back out:

* Fig. 5: withdraw a random half of an L-satellite constellation.
* Fig. 6: withdraw the *largest* of 11 parties under varying contribution
  skew.

The figures run their Monte-Carlo loops over the experiment context's
shared contact store (:mod:`repro.experiments`); this module keeps the
self-contained, constellation-level primitive the marketplace example
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.constants import DEFAULT_MIN_ELEVATION_DEG
from repro.constellation.satellite import Constellation
from repro.core.registry import MultiPartyConstellation
from repro.ground.cities import CITIES, City, population_weights, terminals_for_cities
from repro.sim.clock import TimeGrid
from repro.sim.coverage import population_weighted_coverage_fraction
from repro.sim.visibility import VisibilityEngine


@dataclass(frozen=True)
class WithdrawalImpact:
    """Coverage before and after a withdrawal."""

    base_fraction: float
    reduced_fraction: float
    horizon_s: float

    @property
    def reduction_fraction(self) -> float:
        """Coverage lost, as a fraction of the horizon (the Fig. 5/6 y-axis)."""
        return self.base_fraction - self.reduced_fraction

    @property
    def reduction_percent(self) -> float:
        return 100.0 * self.reduction_fraction

    @property
    def lost_time_s(self) -> float:
        """Coverage lost expressed as absolute time (the paper quotes
        '1 day and 16 hours' for L=200)."""
        return self.reduction_fraction * self.horizon_s


def coverage_fraction_of(
    constellation: Constellation,
    grid: TimeGrid,
    cities: Sequence[City] = CITIES,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
) -> float:
    """Population-weighted coverage fraction of a constellation (convenience)."""
    engine = VisibilityEngine(grid)
    terminals = terminals_for_cities(cities, min_elevation_deg=min_elevation_deg)
    masks = engine.site_coverage(constellation, terminals)
    return population_weighted_coverage_fraction(masks, population_weights(cities))


def largest_party_withdrawal(
    registry: MultiPartyConstellation,
    grid: TimeGrid,
    cities: Sequence[City] = CITIES,
) -> WithdrawalImpact:
    """Fig. 6 primitive: the largest contributor denies service."""
    full = registry.constellation()
    largest = registry.largest_party()
    remaining = full.without_party(largest)
    base = coverage_fraction_of(full, grid, cities)
    reduced = (
        coverage_fraction_of(remaining, grid, cities) if len(remaining) else 0.0
    )
    return WithdrawalImpact(base, reduced, grid.duration_s)
