"""End-to-end integration tests: the full MP-LEO lifecycle.

These scenarios wire multiple subsystems together the way a downstream user
would: build a shared constellation, run the bent-pipe engine, bill the
spare-capacity trades, and survive a withdrawal.
"""

import numpy as np
import pytest

from repro import (
    MultiPartyConstellation,
    Party,
    Satellite,
    TimeGrid,
    VisibilityEngine,
)
from repro.constellation.walker import walker_delta
from repro.core.market import CongestionPricing, DataMarket, FlatPricing
from repro.core.robustness import largest_party_withdrawal
from repro.core.sharing import exchange_matrix, reciprocity_scores
from repro.ground.cities import CITIES, TAIPEI
from repro.ground.gsaas import GroundStationPool
from repro.ground.sites import UserTerminal
from repro.sim.engine import BentPipeSimulator


@pytest.fixture(scope="module")
def mp_leo_registry():
    """Two parties contributing interleaved halves of a Walker constellation."""
    elements = walker_delta(36, 6, 1, inclination_deg=53.0, altitude_km=550.0)
    registry = MultiPartyConstellation()
    registry.join(Party("taiwan", launch_budget=18))
    registry.join(Party("korea", launch_budget=18))
    taiwan_sats = [
        Satellite(sat_id=f"TW-{index}", elements=element)
        for index, element in enumerate(elements[::2])
    ]
    korea_sats = [
        Satellite(sat_id=f"KR-{index}", elements=element)
        for index, element in enumerate(elements[1::2])
    ]
    registry.contribute("taiwan", taiwan_sats)
    registry.contribute("korea", korea_sats)
    return registry


class TestSharedConstellationLifecycle:
    def test_stakes_are_equal(self, mp_leo_registry):
        stakes = mp_leo_registry.stakes()
        assert stakes["taiwan"] == pytest.approx(0.5)
        assert stakes["korea"] == pytest.approx(0.5)

    def test_shared_beats_own_half(self, mp_leo_registry):
        """The core MP-LEO value proposition: shared > go-it-alone."""
        grid = TimeGrid.hours(12.0, step_s=120.0)
        engine = VisibilityEngine(grid)
        terminal = TAIPEI.terminal()
        full = mp_leo_registry.constellation()
        own = full.without_party("korea")
        shared_cov = engine.site_coverage(full, [terminal])[0].mean()
        alone_cov = engine.site_coverage(own, [terminal])[0].mean()
        assert shared_cov > alone_cov

    def test_withdrawal_degrades_not_destroys(self, mp_leo_registry):
        grid = TimeGrid.hours(12.0, step_s=120.0)
        impact = largest_party_withdrawal(mp_leo_registry, grid, CITIES[:5])
        assert impact.reduction_fraction >= 0.0
        assert impact.reduced_fraction > 0.0  # Network still serviceable.


class TestEngineMarketLoop:
    @pytest.fixture(scope="class")
    def run_result(self, mp_leo_registry):
        constellation = mp_leo_registry.constellation()
        terminals = [
            UserTerminal(
                "ut-taipei", TAIPEI.latitude_deg, TAIPEI.longitude_deg,
                min_elevation_deg=25.0, party="taiwan", demand_mbps=100.0,
            ),
            UserTerminal(
                "ut-seoul", 37.57, 126.98,
                min_elevation_deg=25.0, party="korea", demand_mbps=100.0,
            ),
        ]
        pool = GroundStationPool()
        stations = [
            pool.rent_nearest("taiwan", TAIPEI.latitude_deg, TAIPEI.longitude_deg),
            pool.rent_nearest("korea", 37.57, 126.98),
        ]
        grid = TimeGrid.hours(12.0, step_s=120.0)
        simulator = BentPipeSimulator(constellation, terminals, stations, grid)
        return simulator.run(np.random.default_rng(0))

    def test_both_parties_served(self, run_result):
        assert run_result.served_mbps.sum(axis=1).min() > 0.0

    def test_spare_capacity_traded(self, run_result):
        """With interleaved ownership, each party rides the other's sats."""
        assert run_result.spare_capacity_megabits() > 0.0

    def test_exchange_matrix_consistent_with_sessions(self, run_result):
        matrix = exchange_matrix(run_result.sessions, ["taiwan", "korea"])
        traded = matrix[0, 1] + matrix[1, 0]
        assert traded == pytest.approx(run_result.spare_capacity_megabits())

    def test_flat_bills_match_the_exchange_matrix(self, run_result):
        parties = ["taiwan", "korea"]
        matrix = exchange_matrix(run_result.sessions, parties)
        invoices = DataMarket(pricing=FlatPricing(0.001)).bill(run_result.sessions)
        owed = np.zeros_like(matrix)
        for invoice in invoices:
            owed[parties.index(invoice.consumer), parties.index(invoice.provider)] += (
                invoice.tokens
            )
        assert np.allclose(owed, 0.001 * (matrix - np.diag(np.diag(matrix))))

    def test_congestion_at_full_load_bills_five_times_flat(self, run_result):
        utilization = {sat_id: 1.0 for sat_id in
                       {session.sat_id for session in run_result.sessions}}
        flat = DataMarket(pricing=FlatPricing(0.001)).bill(run_result.sessions)
        busy = DataMarket(pricing=CongestionPricing(0.001, slope=4.0)).bill(
            run_result.sessions, utilization_by_sat=utilization
        )
        assert len(busy) == len(flat) > 0
        assert sum(i.tokens for i in busy) == pytest.approx(
            5.0 * sum(i.tokens for i in flat)
        )

    def test_reciprocity_roughly_balanced(self, run_result):
        matrix = exchange_matrix(run_result.sessions, ["taiwan", "korea"])
        scores = reciprocity_scores(matrix)
        assert np.all(np.abs(scores) < 0.9)  # Neither is a pure free-rider.
