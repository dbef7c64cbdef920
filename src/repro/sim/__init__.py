"""Satellite network simulator (the CosmicBeats-equivalent substrate).

* :mod:`repro.sim.clock` — simulation time grids.
* :mod:`repro.sim.visibility` — vectorized satellite-ground visibility.
* :mod:`repro.sim.coverage` — coverage timelines and gap statistics.
* :mod:`repro.sim.capacity` — satellite utilization / idle-time accounting.
* :mod:`repro.sim.engine` — event-driven bent-pipe session simulator.
* :mod:`repro.sim.traffic` — workload generation for the event simulator.
* :mod:`repro.sim.contacts` — contact plans.
* :mod:`repro.sim.intervals` — analytic (rise, set) contact windows and
  the interval algebra behind the event-driven engine.
* :mod:`repro.sim.scheduling` — satellite-to-ground downlink scheduling
  with pluggable antenna-assignment policies.
"""

from repro.sim.clock import TimeGrid
from repro.sim.coverage import (
    CoverageStats,
    coverage_stats,
    gap_lengths_s,
    population_weighted_coverage_fraction,
)
from repro.sim.intervals import (
    ContactIntervals,
    IntervalSet,
    find_contact_intervals,
)
from repro.sim.visibility import VisibilityEngine

__all__ = [
    "TimeGrid",
    "VisibilityEngine",
    "ContactIntervals",
    "IntervalSet",
    "find_contact_intervals",
    "CoverageStats",
    "coverage_stats",
    "gap_lengths_s",
    "population_weighted_coverage_fraction",
]
