"""Orbital mechanics substrate.

This package implements everything the simulator needs to know about orbits:

* :mod:`repro.orbits.elements` — classical orbital elements and anomaly
  conversions.
* :mod:`repro.orbits.kepler` — Kepler-equation solvers (scalar and
  vectorized).
* :mod:`repro.orbits.frames` — time and coordinate frames (GMST, ECI, ECEF,
  geodetic).
* :mod:`repro.orbits.propagator` — two-body + J2-secular propagation, both a
  readable scalar reference and a numpy batch implementation used by the
  coverage engine.
* :mod:`repro.orbits.topocentric` — azimuth / elevation / range from a ground
  site.
* :mod:`repro.orbits.groundtrack` — ground tracks and revisit analysis.
"""

from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import (
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
    gmst_rad,
    subsatellite_point,
)
from repro.orbits.kepler import solve_kepler, solve_kepler_batch
from repro.orbits.propagator import BatchPropagator, J2Propagator
from repro.orbits.topocentric import elevation_deg, look_angles

__all__ = [
    "OrbitalElements",
    "J2Propagator",
    "BatchPropagator",
    "solve_kepler",
    "solve_kepler_batch",
    "gmst_rad",
    "eci_to_ecef",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
    "subsatellite_point",
    "look_angles",
    "elevation_deg",
]
