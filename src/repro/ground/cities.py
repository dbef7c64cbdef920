"""City database for the paper's experiments.

The paper's methodology (§2, §3.2): "the top 20 most populated cities,
limited to one per country. We add Melbourne, Australia, to ensure
representation from all major continents."  The exact list is reconstructed
from that rule using UN World Urbanization Prospects agglomeration estimates;
populations are in millions and used only as coverage weights, so modest
disagreement between population sources does not change any result shape.

Taipei is included separately as the Fig. 2 receiver location ("a receiver at
a central location in Taipei, Taiwan").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constants import DEFAULT_MIN_ELEVATION_DEG
from repro.ground.sites import UserTerminal


@dataclass(frozen=True)
class City:
    """A city with coordinates and an agglomeration population estimate."""

    name: str
    country: str
    latitude_deg: float
    longitude_deg: float
    population_millions: float

    def terminal(
        self, min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG, party: str = ""
    ) -> UserTerminal:
        """Place a user terminal at the city center."""
        return UserTerminal(
            name=self.name,
            latitude_deg=self.latitude_deg,
            longitude_deg=self.longitude_deg,
            min_elevation_deg=min_elevation_deg,
            party=party,
        )


#: The paper's 21 cities: top-20 most populous (one per country) + Melbourne,
#: ordered by population so ``CITIES[:n]`` reproduces the Fig. 3 sweep of
#: "one to 21 cities".
CITIES: Sequence[City] = (
    City("Tokyo", "Japan", 35.6762, 139.6503, 37.19),
    City("Delhi", "India", 28.6139, 77.2090, 32.94),
    City("Shanghai", "China", 31.2304, 121.4737, 29.21),
    City("Dhaka", "Bangladesh", 23.8103, 90.4125, 23.21),
    City("Sao Paulo", "Brazil", -23.5505, -46.6333, 22.62),
    City("Mexico City", "Mexico", 19.4326, -99.1332, 22.28),
    City("Cairo", "Egypt", 30.0444, 31.2357, 22.18),
    City("New York", "United States", 40.7128, -74.0060, 18.82),
    City("Karachi", "Pakistan", 24.8607, 67.0011, 17.65),
    City("Kinshasa", "DR Congo", -4.4419, 15.2663, 16.32),
    City("Lagos", "Nigeria", 6.5244, 3.3792, 15.95),
    City("Istanbul", "Turkey", 41.0082, 28.9784, 15.85),
    City("Buenos Aires", "Argentina", -34.6037, -58.3816, 15.49),
    City("Manila", "Philippines", 14.5995, 120.9842, 14.67),
    City("Moscow", "Russia", 55.7558, 37.6173, 12.68),
    City("Jakarta", "Indonesia", -6.2088, 106.8456, 11.25),
    City("Lima", "Peru", -12.0464, -77.0428, 11.20),
    City("Bangkok", "Thailand", 13.7563, 100.5018, 11.07),
    City("Seoul", "South Korea", 37.5665, 126.9780, 9.99),
    City("London", "United Kingdom", 51.5074, -0.1278, 9.65),
    City("Melbourne", "Australia", -37.8136, 144.9631, 5.32),
)

#: The Fig. 2 receiver location: central Taipei, Taiwan.
TAIPEI = City("Taipei", "Taiwan", 25.0330, 121.5654, 7.05)


def city_by_name(name: str) -> City:
    """Look a city up by (case-insensitive) name.

    Raises:
        KeyError: If the city is not in the database.
    """
    lowered = name.lower()
    if lowered == TAIPEI.name.lower():
        return TAIPEI
    for city in CITIES:
        if city.name.lower() == lowered:
            return city
    raise KeyError(f"unknown city: {name!r}")


def terminals_for_cities(
    cities: Sequence[City],
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
) -> List[UserTerminal]:
    """Place one user terminal at each city center."""
    return [city.terminal(min_elevation_deg=min_elevation_deg) for city in cities]


def population_weights(cities: Sequence[City]) -> List[float]:
    """Normalized population weights over a set of cities (sum to 1)."""
    total = sum(city.population_millions for city in cities)
    if total <= 0.0:
        raise ValueError("total population must be positive")
    return [city.population_millions / total for city in cities]
