"""Ground tracks (the geometry behind Fig. 1a).

A LEO satellite's ground track drifts westward every orbit because Earth
rotates beneath the fixed orbital plane — the paper's core geometric
premise.  This module computes tracks and the per-orbit nodal shift that
follows from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import EARTH_ROTATION_RATE
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import gmst_rad, subsatellite_point
from repro.orbits.propagator import BatchPropagator, j2_secular_rates


@dataclass(frozen=True)
class GroundTrack:
    """A sampled ground track."""

    times_s: np.ndarray
    latitudes_deg: np.ndarray
    longitudes_deg: np.ndarray

    def __len__(self) -> int:
        return int(self.times_s.size)

    @property
    def max_latitude_deg(self) -> float:
        return float(np.max(np.abs(self.latitudes_deg)))

    def ascending_node_longitudes(self) -> np.ndarray:
        """Longitudes where the track crosses the equator northbound."""
        lat = self.latitudes_deg
        crossings = (lat[:-1] <= 0.0) & (lat[1:] > 0.0)
        return self.longitudes_deg[:-1][crossings]


def compute_ground_track(
    elements: OrbitalElements,
    duration_s: float,
    step_s: float = 30.0,
    gmst_at_epoch_rad: float = 0.0,
) -> GroundTrack:
    """Sample a satellite's subsatellite point over a horizon.

    Raises:
        ValueError: On non-positive duration or step.
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if step_s <= 0.0:
        raise ValueError(f"step must be positive, got {step_s}")
    times = np.arange(0.0, duration_s, step_s)
    propagator = BatchPropagator([elements])
    positions = propagator.positions_eci(times)[0]  # (T, 3)
    theta = gmst_rad(times, gmst_at_epoch_rad)
    latitudes, longitudes = subsatellite_point(positions, theta)
    return GroundTrack(
        times_s=times,
        latitudes_deg=np.asarray(latitudes),
        longitudes_deg=np.asarray(longitudes),
    )


def nodal_shift_deg_per_orbit(elements: OrbitalElements) -> float:
    """Westward shift of the ascending node's longitude per orbit.

    Earth rotates east under the plane at the sidereal rate while the plane
    itself precesses at the J2 nodal rate; the per-orbit longitude shift is
    the difference, times the nodal period.
    """
    rates = j2_secular_rates(elements)
    # Nodal period: time between ascending nodes (accounts for perigee drift).
    nodal_rate = rates.mean_anomaly_rate + rates.arg_perigee_rate
    nodal_period_s = 2.0 * math.pi / nodal_rate
    relative_rate = EARTH_ROTATION_RATE - rates.raan_rate
    return math.degrees(relative_rate * nodal_period_s)
