"""Propagation latency: why LEO and not GEO (§2).

"One might wonder — why not use geostationary satellites that do not move
with respect to earth?  Such satellites operate at heights of around
36000 Km, leading to orders of magnitude degradation in network latency
(second-level) and capacity compared to LEO satellites."

This module computes bent-pipe latency from geometry so that claim is a
measurement, not an assertion: user -> satellite -> ground station, both
hops at the speed of light, plus a configurable processing allowance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.constants import EARTH_MEAN_RADIUS_M, SPEED_OF_LIGHT
from repro.orbits.topocentric import slant_range_m

#: Geostationary orbital radius, meters.
GEO_RADIUS_M = 42_164_000.0

#: Geostationary altitude, km (for convenience/printing).
GEO_ALTITUDE_KM = (GEO_RADIUS_M - EARTH_MEAN_RADIUS_M) / 1000.0


@dataclass(frozen=True)
class BentPipeLatency:
    """One-way and round-trip latency of a bent-pipe hop pair."""

    uplink_s: float
    downlink_s: float
    processing_s: float

    @property
    def one_way_s(self) -> float:
        return self.uplink_s + self.downlink_s + self.processing_s

    @property
    def round_trip_s(self) -> float:
        return 2.0 * self.one_way_s

    @property
    def one_way_ms(self) -> float:
        return 1000.0 * self.one_way_s

    @property
    def round_trip_ms(self) -> float:
        return 1000.0 * self.round_trip_s


def bent_pipe_latency(
    orbital_radius_m: float,
    user_elevation_deg: float,
    station_elevation_deg: float,
    processing_s: float = 0.0,
) -> BentPipeLatency:
    """Latency of one bent-pipe traversal at given hop elevations.

    Args:
        orbital_radius_m: Satellite orbital radius.
        user_elevation_deg: Elevation of the satellite from the user.
        station_elevation_deg: Elevation from the ground station.
        processing_s: Transponder/ground processing allowance.

    Raises:
        ValueError: On non-positive radius or negative processing time.
    """
    if orbital_radius_m <= EARTH_MEAN_RADIUS_M:
        raise ValueError("orbital radius must exceed the Earth radius")
    if processing_s < 0.0:
        raise ValueError("processing time must be non-negative")
    uplink = slant_range_m(orbital_radius_m, user_elevation_deg) / SPEED_OF_LIGHT
    downlink = (
        slant_range_m(orbital_radius_m, station_elevation_deg) / SPEED_OF_LIGHT
    )
    return BentPipeLatency(uplink, downlink, processing_s)


def latency_bounds_ms(
    altitude_km: float,
    min_elevation_deg: float = 25.0,
) -> Tuple[float, float]:
    """(best, worst) one-way bent-pipe latency in ms for an altitude.

    Best case: satellite at zenith for both hops; worst case: both hops at
    the elevation mask.
    """
    radius = EARTH_MEAN_RADIUS_M + altitude_km * 1000.0
    best = bent_pipe_latency(radius, 90.0, 90.0).one_way_ms
    worst = bent_pipe_latency(
        radius, min_elevation_deg, min_elevation_deg
    ).one_way_ms
    return best, worst


def geo_vs_leo_round_trip_ms(
    leo_altitude_km: float = 550.0,
    min_elevation_deg: float = 25.0,
) -> Tuple[float, float]:
    """(LEO, GEO) worst-case bent-pipe round-trip latencies in ms.

    The §2 comparison: GEO's ~0.5 s round trip vs LEO's tens of ms.
    """
    leo_radius = EARTH_MEAN_RADIUS_M + leo_altitude_km * 1000.0
    leo = bent_pipe_latency(
        leo_radius, min_elevation_deg, min_elevation_deg
    ).round_trip_ms
    geo = bent_pipe_latency(
        GEO_RADIUS_M, min_elevation_deg, min_elevation_deg
    ).round_trip_ms
    return leo, geo
