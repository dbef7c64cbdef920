"""Ground sites: user terminals and ground stations.

A :class:`GroundSite` is a fixed point on Earth with an elevation mask; the
two concrete kinds differ in role, not geometry:

* A :class:`UserTerminal` is a traffic source/sink owned by a consumer (or by
  a party's customers).
* A :class:`GroundStation` is the party-operated downlink point of the
  paper's transparent bent-pipe architecture; user signals are repeated by
  the satellite down to a ground station of the *same party* (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_MIN_ELEVATION_DEG
from repro.orbits.frames import geodetic_to_ecef


@dataclass(frozen=True)
class GroundSite:
    """A fixed site on Earth.

    Attributes:
        name: Identifier (unique within a simulation).
        latitude_deg: Geodetic latitude, degrees north.
        longitude_deg: Longitude, degrees east.
        altitude_m: Height above the WGS-84 ellipsoid, meters.
        min_elevation_deg: Elevation mask; satellites below it are invisible.
    """

    name: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg <= 360.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValueError(
                f"elevation mask must be in [0, 90), got {self.min_elevation_deg}"
            )

    @property
    def position_ecef(self) -> np.ndarray:
        """ECEF position of the site, meters (shape (3,))."""
        return geodetic_to_ecef(self.latitude_deg, self.longitude_deg, self.altitude_m)

    @property
    def unit_ecef(self) -> np.ndarray:
        """Unit vector from Earth's center through the site (ECEF)."""
        position = self.position_ecef
        return position / np.linalg.norm(position)


@dataclass(frozen=True)
class UserTerminal(GroundSite):
    """A consumer terminal: generates demand toward the network.

    Attributes:
        party: Owning MP-LEO participant, or "" for an independent consumer.
        demand_mbps: Nominal downstream demand when a satellite is overhead.
    """

    party: str = ""
    demand_mbps: float = 100.0


@dataclass(frozen=True)
class GroundStation(GroundSite):
    """A party-operated gateway that terminates bent-pipe downlinks.

    Attributes:
        party: Operating MP-LEO participant.
        capacity_mbps: Aggregate feeder-link capacity of the station.
        rented: True when the station is rented from a ground-station-as-a-
            service provider rather than owned outright (affects economics,
            not geometry).
    """

    party: str = ""
    capacity_mbps: float = 10_000.0
    rented: bool = False
