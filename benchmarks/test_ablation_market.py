"""Ablation — pricing policy effects on the MP-LEO data market (§3.2, §4).

Runs the bent-pipe engine over a two-party shared constellation and bills
the spare-capacity sessions under flat vs congestion pricing.  Congestion
pricing shifts revenue toward satellites that actually carry load; total
traded volume is identical (pricing does not change the physics).
"""

import numpy as np


from repro.analysis.reporting import Table
from repro.constellation.satellite import Constellation, Satellite
from repro.constellation.walker import walker_delta
from repro.core.auction import Bid, asks_from_spare_capacity, clear_double_auction
from repro.core.market import CongestionPricing, DataMarket, FlatPricing
from repro.ground.cities import TAIPEI
from repro.ground.sites import GroundStation, UserTerminal
from repro.sim.clock import TimeGrid
from repro.sim.engine import BentPipeSimulator


def _two_party_scenario():
    elements = walker_delta(24, 6, 1, inclination_deg=53.0, altitude_km=550.0)
    satellites = [
        Satellite(
            sat_id=f"S-{index}",
            elements=element,
            party="alpha" if index % 2 == 0 else "beta",
        )
        for index, element in enumerate(elements)
    ]
    constellation = Constellation(satellites)
    terminals = [
        UserTerminal(
            "ut-alpha", TAIPEI.latitude_deg, TAIPEI.longitude_deg,
            min_elevation_deg=25.0, party="alpha", demand_mbps=200.0,
        ),
        UserTerminal(
            "ut-beta", 37.57, 126.98,
            min_elevation_deg=25.0, party="beta", demand_mbps=200.0,
        ),
    ]
    stations = [
        GroundStation("gs-alpha", 24.0, 121.0, min_elevation_deg=10.0, party="alpha"),
        GroundStation("gs-beta", 37.0, 127.5, min_elevation_deg=10.0, party="beta"),
    ]
    return constellation, terminals, stations


def _run(config):
    constellation, terminals, stations = _two_party_scenario()
    grid = TimeGrid.hours(24.0, step_s=config.step_s)
    result = BentPipeSimulator(constellation, terminals, stations, grid).run(
        config.rng(salt=102)
    )
    utilization = {
        sat_id: float(load.mean() > 0.0) * float((load > 0).mean())
        for sat_id, load in zip(
            result.sat_ids, result.satellite_load_mbps
        )
    }
    outcomes = {}
    for name, pricing in (
        ("flat", FlatPricing(0.001)),
        ("congestion", CongestionPricing(0.001, slope=4.0)),
    ):
        market = DataMarket(pricing=pricing)
        invoices = market.bill(result.sessions, utilization_by_sat=utilization)
        outcomes[name] = {
            "invoices": len(invoices),
            "revenue": sum(invoice.tokens for invoice in invoices),
        }
    outcomes["traded_megabits"] = result.spare_capacity_megabits()

    # Dynamic price discovery (§4): auction next-day spare capacity.  Supply
    # is each party's measured spare-capacity rate; demand is two buyers
    # with different willingness to pay.
    spare_rate_by_party = {}
    for session in result.sessions:
        if session.is_spare_capacity:
            spare_rate_by_party[session.sat_party] = (
                spare_rate_by_party.get(session.sat_party, 0.0)
                + session.rate_mbps * session.duration_s / grid.duration_s
            )
    auction = clear_double_auction(
        bids=[
            Bid("alpha", quantity=30.0, price=0.004),
            Bid("beta", quantity=30.0, price=0.002),
        ],
        asks=asks_from_spare_capacity(spare_rate_by_party, reserve_price=0.001),
    )
    outcomes["auction"] = auction
    return outcomes


def test_ablation_market(bench_config, report):
    outcomes = _run(bench_config)

    table = Table(
        "Ablation: market outcomes by pricing policy (2-party MP-LEO, 24 h)",
        ["policy", "invoices", "total revenue (tokens)"],
        precision=2,
    )
    for name in ("flat", "congestion"):
        table.add_row(name, outcomes[name]["invoices"], outcomes[name]["revenue"])
    report(table)

    assert outcomes["traded_megabits"] > 0.0, "scenario must trade spare capacity"
    assert outcomes["flat"]["invoices"] == outcomes["congestion"]["invoices"]
    # Congestion pricing charges at least the flat base, more under load.
    assert outcomes["congestion"]["revenue"] >= outcomes["flat"]["revenue"]

    auction = outcomes["auction"]
    auction_table = Table(
        "Ablation: spot-auction price discovery for spare capacity",
        ["metric", "value"],
        precision=4,
    )
    auction_table.add_row("cleared", str(auction.cleared))
    if auction.cleared:
        auction_table.add_row("clearing price (tokens/Mb)", auction.clearing_price)
        auction_table.add_row("traded rate (Mbps)", auction.traded_quantity)
        auction_table.add_row("trades", len(auction.trades))
    report(auction_table)
    assert auction.cleared
    # Uniform price sits between the reserve and the top bid.
    assert 0.001 <= auction.clearing_price <= 0.004
