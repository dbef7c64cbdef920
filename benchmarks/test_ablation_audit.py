"""Ablation — detecting a service-denying party (§4's trust question).

Simulates a denial attack: a two-party constellation runs the bent-pipe
engine normally, then one party's guest-serving sessions are suppressed
(what its denial would look like in the session log).  The auditor must
flag the attacker from visibility ground truth + the log, and leave the
honest party clean.
"""

import numpy as np

from repro.analysis.reporting import Table
from repro.constellation.satellite import Constellation, Satellite
from repro.constellation.walker import walker_delta
from repro.core.audit import audit_service_denial, slashing_amounts
from repro.ground.cities import TAIPEI, city_by_name
from repro.ground.sites import GroundStation, UserTerminal
from repro.sim.clock import TimeGrid
from repro.sim.engine import BentPipeSimulator
from repro.sim.visibility import VisibilityEngine


def _scenario():
    elements = walker_delta(24, 6, 1, inclination_deg=53.0, altitude_km=550.0)
    satellites = [
        Satellite(
            sat_id=f"S-{index}",
            elements=element,
            party="honest" if index % 2 == 0 else "denier",
        )
        for index, element in enumerate(elements)
    ]
    constellation = Constellation(satellites)
    seoul = city_by_name("Seoul")
    terminals = [
        UserTerminal("ut-h", TAIPEI.latitude_deg, TAIPEI.longitude_deg,
                     min_elevation_deg=25.0, party="honest", demand_mbps=100.0),
        UserTerminal("ut-d", seoul.latitude_deg, seoul.longitude_deg,
                     min_elevation_deg=25.0, party="denier", demand_mbps=100.0),
    ]
    stations = [
        GroundStation("gs-h", 24.0, 121.0, min_elevation_deg=10.0, party="honest"),
        GroundStation("gs-d", 37.0, 127.5, min_elevation_deg=10.0, party="denier"),
    ]
    return constellation, terminals, stations


def _run(config):
    constellation, terminals, stations = _scenario()
    grid = TimeGrid.hours(24.0, step_s=config.step_s)
    result = BentPipeSimulator(constellation, terminals, stations, grid).run(
        config.rng(salt=107)
    )
    # The attack: the 'denier' never actually carries guest traffic.
    attacked_log = [
        session
        for session in result.sessions
        if not (session.sat_party == "denier" and session.is_spare_capacity)
    ]
    visibility = VisibilityEngine(grid).visibility(constellation, terminals)
    reports = audit_service_denial(
        visibility,
        [terminal.party for terminal in terminals],
        [satellite.party for satellite in constellation],
        attacked_log,
        [satellite.sat_id for satellite in constellation],
        grid.duration_s,
    )
    slashes = slashing_amounts(
        reports, {"honest": 1000.0, "denier": 1000.0}, slash_rate=0.1
    )
    return reports, slashes


def test_ablation_audit(bench_config, report):
    reports, slashes = _run(bench_config)

    table = Table(
        "Ablation: service-denial audit after a simulated denial attack (24 h)",
        ["party", "opportunity", "served", "denial score", "flagged", "slashed"],
        precision=3,
    )
    for item in reports:
        table.add_row(
            item.party,
            item.opportunity_fraction,
            item.service_fraction,
            item.denial_score,
            str(item.suspicious),
            slashes.get(item.party, 0.0),
        )
    report(table)

    by_party = {item.party: item for item in reports}
    assert by_party["denier"].suspicious
    assert not by_party["honest"].suspicious
    assert slashes.get("denier", 0.0) > 0.0
    assert "honest" not in slashes
