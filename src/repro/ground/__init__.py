"""Ground segment: sites, terminals, stations, and the city database.

* :mod:`repro.ground.sites` — ground sites (user terminals, ground stations)
  with cached ECEF positions and elevation masks.
* :mod:`repro.ground.cities` — the paper's 21-city database (top-20 most
  populous cities, one per country, plus Melbourne) and Taipei, the Fig. 2
  receiver location.
* :mod:`repro.ground.gsaas` — ground-station-as-a-service pools modelling the
  AWS/Azure rent-a-station offerings the paper's design relies on.
"""

from repro.ground.cities import CITIES, City, TAIPEI, city_by_name
from repro.ground.sites import GroundSite, GroundStation, UserTerminal

__all__ = [
    "GroundSite",
    "GroundStation",
    "UserTerminal",
    "City",
    "CITIES",
    "TAIPEI",
    "city_by_name",
]
