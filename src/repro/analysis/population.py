"""Population-weighted coverage metrics over city sets.

Thin glue between the city database and the coverage math: build terminals
for a city list, reduce a visibility product to the paper's §3.2 objective
("population weighted coverage over 21 most populous cities").
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.constants import DEFAULT_MIN_ELEVATION_DEG
from repro.ground.cities import CITIES, City, population_weights, terminals_for_cities
from repro.sim.clock import TimeGrid
from repro.sim.coverage import population_weighted_coverage_fraction
from repro.sim.visibility import VisibilityEngine


def weighted_city_coverage(
    constellation,
    grid: TimeGrid,
    cities: Sequence[City] = CITIES,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
    engine: Optional[VisibilityEngine] = None,
) -> float:
    """Population-weighted coverage fraction of a constellation over cities.

    Args:
        constellation: Anything the visibility engine accepts.
        grid: Time grid to evaluate over.
        cities: City set (defaults to the paper's 21).
        min_elevation_deg: Terminal elevation mask.
        engine: Reusable engine (built from ``grid`` when omitted).

    Returns:
        Weighted covered fraction in [0, 1].
    """
    if engine is None:
        engine = VisibilityEngine(grid)
    terminals = terminals_for_cities(cities, min_elevation_deg=min_elevation_deg)
    masks = engine.site_coverage(constellation, terminals)
    return population_weighted_coverage_fraction(masks, population_weights(cities))
