"""repro — decentralized multi-party LEO satellite constellations (MP-LEO).

A from-scratch reproduction of *A Call for Decentralized Satellite Networks*
(Oh & Vasisht, HotNets '24): an orbital/constellation/ground/link simulator
substrate (the CosmicBeats equivalent), the MP-LEO design layer, and an
experiment harness that regenerates every figure in the paper.

Quickstart::

    import numpy as np
    from repro import (
        Constellation, TimeGrid, VisibilityEngine,
        starlink_like_constellation, sample_constellation,
    )
    from repro.ground.cities import TAIPEI

    pool = starlink_like_constellation()
    subset = sample_constellation(pool, 1000, np.random.default_rng(0))
    engine = VisibilityEngine(TimeGrid.one_week())
    masks = engine.site_coverage(subset, [TAIPEI.terminal()])
    print(f"Taipei covered {100 * masks[0].mean():.2f}% of the week")

Packages:

* :mod:`repro.orbits` — orbital mechanics (elements, Kepler, J2, frames).
* :mod:`repro.constellation` — Walker patterns, synthetic megaconstellations.
* :mod:`repro.ground` — terminals, stations, the 21-city database, GSaaS.
* :mod:`repro.links` — link budgets, MODCOD capacity, the bent-pipe model.
* :mod:`repro.sim` — time grids, vectorized visibility, coverage statistics,
  the bent-pipe session engine.
* :mod:`repro.core` — MP-LEO itself: parties, registry, placement,
  market pricing, sharing, robustness, objectives, economics.
* :mod:`repro.experiments` — one module per paper figure.
* :mod:`repro.analysis` — gap/idle analytics and report rendering.
"""

from repro.constellation import (
    Constellation,
    Satellite,
    sample_constellation,
    starlink_like_constellation,
    walker_delta,
    walker_star,
)
from repro.core import MultiPartyConstellation, Party
from repro.orbits import BatchPropagator, J2Propagator, OrbitalElements
from repro.sim import (
    CoverageStats,
    TimeGrid,
    VisibilityEngine,
    coverage_stats,
    population_weighted_coverage_fraction,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "OrbitalElements",
    "J2Propagator",
    "BatchPropagator",
    "Satellite",
    "Constellation",
    "walker_delta",
    "walker_star",
    "starlink_like_constellation",
    "sample_constellation",
    "TimeGrid",
    "VisibilityEngine",
    "CoverageStats",
    "coverage_stats",
    "population_weighted_coverage_fraction",
    "Party",
    "MultiPartyConstellation",
]
