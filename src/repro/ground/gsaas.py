"""Ground-station-as-a-service (GSaaS) pools.

The paper's §3.1 design assumes parties can rent downlink capacity from
cloud ground-station networks (AWS Ground Station, Azure Orbital) instead of
building their own gateways.  A :class:`GroundStationPool` models one such
provider: a set of station sites with a few antennas each, and a rental
operation that produces :class:`~repro.ground.sites.GroundStation` records
bound to a renting party.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.ground.sites import GroundStation

#: Approximate AWS Ground Station site locations (public region list):
#: (name, latitude, longitude).
AWS_LIKE_SITES: Sequence[Tuple[str, float, float]] = (
    ("oregon", 45.52, -122.68),
    ("ohio", 40.0, -83.0),
    ("bahrain", 26.07, 50.55),
    ("stockholm", 59.33, 18.07),
    ("ireland", 53.35, -6.26),
    ("seoul", 37.57, 126.98),
    ("sydney", -33.87, 151.21),
    ("capetown", -33.92, 18.42),
    ("hawaii", 21.31, -157.86),
    ("singapore", 1.35, 103.82),
    ("punta-arenas", -53.16, -70.91),
    ("sao-paulo", -23.55, -46.63),
)


class PoolExhaustedError(RuntimeError):
    """Raised when a pool has no free antenna slots at a requested site."""


@dataclass
class GroundStationPool:
    """A rentable pool of ground stations (the GSaaS model).

    Attributes:
        provider: Provider name (for billing records).
        sites: (name, lat, lon) tuples of available station locations.
        antennas_per_site: How many simultaneous rentals each site supports.
    """

    provider: str = "aws-like"
    sites: Sequence[Tuple[str, float, float]] = AWS_LIKE_SITES
    antennas_per_site: int = 2
    _rentals: Dict[str, List[str]] = field(default_factory=dict)

    def available_antennas(self, site_name: str) -> int:
        """Remaining free antenna slots at a site."""
        used = len(self._rentals.get(site_name, []))
        return self.antennas_per_site - used

    def rent(
        self,
        party: str,
        site_name: str,
        min_elevation_deg: float = 10.0,
        capacity_mbps: float = 10_000.0,
    ) -> GroundStation:
        """Rent one antenna at a site for a party.

        Raises:
            KeyError: If the site is unknown.
            PoolExhaustedError: If every antenna at the site is rented.
        """
        for name, lat, lon in self.sites:
            if name == site_name:
                break
        else:
            raise KeyError(f"unknown GSaaS site: {site_name!r}")
        if self.available_antennas(site_name) <= 0:
            raise PoolExhaustedError(
                f"no free antennas at {site_name!r} "
                f"(all {self.antennas_per_site} rented)"
            )
        self._rentals.setdefault(site_name, []).append(party)
        slot = len(self._rentals[site_name])
        return GroundStation(
            name=f"{self.provider}:{site_name}#{slot}",
            latitude_deg=lat,
            longitude_deg=lon,
            min_elevation_deg=min_elevation_deg,
            party=party,
            capacity_mbps=capacity_mbps,
            rented=True,
        )

    def rent_nearest(
        self,
        party: str,
        latitude_deg: float,
        longitude_deg: float,
        min_elevation_deg: float = 10.0,
    ) -> GroundStation:
        """Rent an antenna at the available site nearest a target location.

        Distance is great-circle on a unit sphere; ties break toward the
        earlier site in the provider's list.

        Raises:
            PoolExhaustedError: If the provider has no free antennas anywhere.
        """
        import math

        def distance(site: Tuple[str, float, float]) -> float:
            _, lat, lon = site
            lat1, lon1 = math.radians(latitude_deg), math.radians(longitude_deg)
            lat2, lon2 = math.radians(lat), math.radians(lon)
            return math.acos(
                min(
                    1.0,
                    math.sin(lat1) * math.sin(lat2)
                    + math.cos(lat1) * math.cos(lat2) * math.cos(lon1 - lon2),
                )
            )

        candidates = [
            site for site in self.sites if self.available_antennas(site[0]) > 0
        ]
        if not candidates:
            raise PoolExhaustedError(f"provider {self.provider!r} fully rented")
        best = min(candidates, key=distance)
        return self.rent(party, best[0], min_elevation_deg=min_elevation_deg)
