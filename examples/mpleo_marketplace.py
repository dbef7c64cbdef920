#!/usr/bin/env python3
"""An MP-LEO lifecycle: contribute, serve, bill, survive a withdrawal.

Three parties (Taiwan, Korea, and a commercial ISP) pool satellites into a
shared constellation and rent ground stations as a service.  The example
then runs one day of the bent-pipe engine, prints who carried whose
traffic, bills the spare-capacity trades, and shows that the network
degrades but survives when its largest party withdraws.

Run:
    python examples/mpleo_marketplace.py
"""

import numpy as np

from repro import MultiPartyConstellation, Party, Satellite, TimeGrid
from repro.constellation.walker import walker_delta
from repro.core.market import DataMarket, FlatPricing
from repro.core.robustness import largest_party_withdrawal
from repro.core.sharing import exchange_matrix
from repro.ground.cities import CITIES, TAIPEI, city_by_name
from repro.ground.gsaas import GroundStationPool
from repro.ground.sites import UserTerminal
from repro.sim.engine import BentPipeSimulator

PARTIES = (
    ("taiwan", TAIPEI),
    ("korea", city_by_name("Seoul")),
    ("isp", city_by_name("London")),
)


def build_registry() -> MultiPartyConstellation:
    """Each party contributes 16 satellites, interleaved across one shell."""
    elements = walker_delta(48, 8, 1, inclination_deg=53.0, altitude_km=550.0)
    registry = MultiPartyConstellation()
    for index, (name, _) in enumerate(PARTIES):
        registry.join(Party(name, launch_budget=16))
        satellites = [
            Satellite(sat_id=f"{name.upper()}-{slot:02d}", elements=element)
            for slot, element in enumerate(elements[index::3])
        ]
        registry.contribute(name, satellites)
    return registry


def main() -> None:
    rng = np.random.default_rng(7)
    registry = build_registry()
    constellation = registry.constellation()
    print(f"Shared constellation: {len(constellation)} satellites, "
          f"stakes {registry.stakes()}")

    # -- Ground segment: each party rents GSaaS capacity near home. -------
    pool = GroundStationPool()
    terminals, stations = [], []
    for name, city in PARTIES:
        terminals.append(
            UserTerminal(
                f"ut-{name}", city.latitude_deg, city.longitude_deg,
                min_elevation_deg=25.0, party=name, demand_mbps=150.0,
            )
        )
        stations.append(
            pool.rent_nearest(name, city.latitude_deg, city.longitude_deg)
        )
    print(f"Rented stations: {[station.name for station in stations]}")

    # -- One day of bent-pipe service. ------------------------------------
    grid = TimeGrid.hours(24.0, step_s=120.0)
    result = BentPipeSimulator(constellation, terminals, stations, grid).run(rng)
    print(f"\nSessions: {len(result.sessions)}, "
          f"served {result.total_served_megabits / 8e3:.1f} GB total, "
          f"{result.spare_capacity_megabits() / 8e3:.1f} GB across parties")

    names = [name for name, _ in PARTIES]
    matrix = exchange_matrix(result.sessions, names)
    print("Exchange matrix (GB consumed by row-party on column-party sats):")
    header = "          " + "  ".join(f"{name:>8s}" for name in names)
    print(header)
    for i, name in enumerate(names):
        cells = "  ".join(f"{matrix[i, j] / 8e3:8.2f}" for j in range(len(names)))
        print(f"  {name:>8s}{cells}")

    # -- Billing: price the spare-capacity trades. ------------------------
    market = DataMarket(pricing=FlatPricing(0.001))
    invoices = market.bill(result.sessions)
    owed = {}
    for invoice in invoices:
        pair = (invoice.consumer, invoice.provider)
        owed[pair] = owed.get(pair, 0.0) + float(invoice.tokens)
    print(f"\nMarket: {len(invoices)} invoices; tokens owed, consumer -> provider:")
    for (consumer, provider), tokens in sorted(owed.items()):
        print(f"  {consumer:>8s} -> {provider:<8s}{tokens:8.1f}")

    # -- Robustness: what if the largest party walks? ----------------------
    impact = largest_party_withdrawal(registry, TimeGrid.hours(24.0, step_s=300.0),
                                      CITIES[:6])
    print(f"\nLargest-party exit: coverage {100 * impact.base_fraction:.1f}% -> "
          f"{100 * impact.reduced_fraction:.1f}% "
          f"({impact.reduction_percent:.1f} points lost; degraded, not dead)")


if __name__ == "__main__":
    main()
