"""Tests for the bent-pipe session engine."""

import numpy as np
import pytest

from repro.constellation.satellite import Constellation, Satellite
from repro.ground.sites import GroundStation, UserTerminal
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid
from repro.sim.engine import BentPipeSimulator
from repro.sim.traffic import ConstantDemand


def _overhead_sat(sat_id, party="p1", mean_anomaly_deg=0.0, capacity=1000.0):
    """A near-equatorial satellite crossing lon 0 at t=0."""
    return Satellite(
        sat_id=sat_id,
        elements=OrbitalElements.from_degrees(
            altitude_km=550.0,
            inclination_deg=0.1,
            mean_anomaly_deg=mean_anomaly_deg,
        ),
        party=party,
        capacity_mbps=capacity,
    )


@pytest.fixture
def equator_setup():
    """Terminal and station co-located near lon 0 on the equator, party p1."""
    terminal = UserTerminal(
        "ut-0", 0.0, 0.0, min_elevation_deg=25.0, party="p1", demand_mbps=100.0
    )
    station = GroundStation("gs-0", 0.5, 0.5, min_elevation_deg=10.0, party="p1")
    return terminal, station


class TestBasicOperation:
    def test_session_when_overhead(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        assert result.sessions, "expected at least one session while overhead"
        session = result.sessions[0]
        assert session.terminal_name == "ut-0"
        assert session.sat_id == "S1"
        assert session.rate_mbps == pytest.approx(100.0)

    def test_no_station_no_service(self, equator_setup, rng):
        """Bent pipe rule: no same-party ground station -> no session."""
        terminal, _ = equator_setup
        other_station = GroundStation(
            "gs-x", 0.5, 0.5, min_elevation_deg=10.0, party="p2"
        )
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        result = BentPipeSimulator(
            constellation, [terminal], [other_station], grid
        ).run(rng)
        assert not result.sessions
        assert result.served_mbps.sum() == 0.0

    def test_satellite_away_no_service(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1", mean_anomaly_deg=180.0)])
        grid = TimeGrid(duration_s=300.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        assert result.served_mbps.sum() == 0.0

    def test_split_geometry_no_service(self, rng):
        """Bent pipe rule: one satellite must see terminal and station at once.

        The station sits ~49 deg east of the terminal; satellites at 16-degree
        phase spacing see one or the other, never both.
        """
        terminal = UserTerminal(
            "ut", 0.0, 0.0, min_elevation_deg=25.0, party="p1", demand_mbps=100.0
        )
        station = GroundStation("gs", 0.0, 49.0, min_elevation_deg=25.0, party="p1")
        constellation = Constellation(
            [_overhead_sat(f"S{i}", mean_anomaly_deg=float(16 * i)) for i in range(4)]
        )
        grid = TimeGrid(duration_s=120.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        assert result.served_mbps.sum() == 0.0

    def test_served_never_exceeds_demand(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        assert np.all(result.served_mbps <= result.demand_mbps + 1e-9)

    def test_run_narrates_grants_onto_timeline(self, equator_setup, rng):
        from repro.obs import timeline as obs_timeline

        obs_timeline.reset()
        try:
            terminal, station = equator_setup
            constellation = Constellation([_overhead_sat("S1")])
            grid = TimeGrid(duration_s=600.0, step_s=60.0)
            result = BentPipeSimulator(
                constellation, [terminal], [station], grid
            ).run(rng)
            grants = obs_timeline.events(kind=obs_timeline.ALLOC_GRANT)
            assert len(grants) == len(result.sessions)
            assert grants[0].subject == "S1"
            assert grants[0].party == "p1"
            assert grants[0].duration_s > 0.0
            assert grants[0].attrs["terminal"] == "ut-0"
        finally:
            obs_timeline.reset()

    def test_unserved_demand_narrated_as_denies(self, equator_setup, rng):
        from repro.obs import timeline as obs_timeline

        obs_timeline.reset()
        try:
            terminal, station = equator_setup
            # Satellite on the far side: demand exists, nothing can serve it.
            constellation = Constellation(
                [_overhead_sat("S1", mean_anomaly_deg=180.0)]
            )
            grid = TimeGrid(duration_s=300.0, step_s=60.0)
            BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
            denies = obs_timeline.events(kind=obs_timeline.ALLOC_DENY)
            assert len(denies) == 1
            assert denies[0].subject == "ut-0"
            assert denies[0].duration_s == pytest.approx(300.0)
        finally:
            obs_timeline.reset()


class TestCapacityLimits:
    def test_capacity_cap_respected(self, rng):
        terminals = [
            UserTerminal(
                f"ut-{i}", 0.0, float(i) * 0.2, min_elevation_deg=25.0,
                party="p1", demand_mbps=400.0,
            )
            for i in range(4)
        ]
        station = GroundStation("gs", 0.5, 0.5, min_elevation_deg=10.0, party="p1")
        constellation = Constellation([_overhead_sat("S1", capacity=1000.0)])
        grid = TimeGrid(duration_s=120.0, step_s=60.0)
        result = BentPipeSimulator(constellation, terminals, [station], grid).run(rng)
        assert np.all(result.satellite_load_mbps <= 1000.0 + 1e-9)

    def test_total_demand_above_capacity_partially_served(self, rng):
        terminals = [
            UserTerminal(
                f"ut-{i}", 0.0, float(i) * 0.2, min_elevation_deg=25.0,
                party="p1", demand_mbps=400.0,
            )
            for i in range(4)
        ]
        station = GroundStation("gs", 0.5, 0.5, min_elevation_deg=10.0, party="p1")
        constellation = Constellation([_overhead_sat("S1", capacity=1000.0)])
        grid = TimeGrid(duration_s=120.0, step_s=60.0)
        result = BentPipeSimulator(constellation, terminals, [station], grid).run(rng)
        served_at_t0 = result.served_mbps[:, 0].sum()
        assert served_at_t0 == pytest.approx(1000.0)


class TestOwnerPriority:
    def test_owner_served_before_guest(self, rng):
        """With capacity for one terminal only, the owner's terminal wins."""
        owner_terminal = UserTerminal(
            "ut-own", 0.0, 0.0, min_elevation_deg=25.0, party="owner",
            demand_mbps=100.0,
        )
        guest_terminal = UserTerminal(
            "ut-guest", 0.0, 0.3, min_elevation_deg=25.0, party="guest",
            demand_mbps=100.0,
        )
        stations = [
            GroundStation("gs-o", 0.5, 0.5, min_elevation_deg=10.0, party="owner"),
            GroundStation("gs-g", -0.5, 0.5, min_elevation_deg=10.0, party="guest"),
        ]
        constellation = Constellation(
            [_overhead_sat("S1", party="owner", capacity=100.0)]
        )
        grid = TimeGrid(duration_s=60.0, step_s=60.0)
        result = BentPipeSimulator(
            constellation, [guest_terminal, owner_terminal], stations, grid
        ).run(rng)
        # Guest listed first, but owner must win the capacity.
        served = dict(zip(result.terminal_names, result.served_mbps[:, 0]))
        assert served["ut-own"] == pytest.approx(100.0)
        assert served["ut-guest"] == pytest.approx(0.0)

    def test_spare_capacity_serves_guest(self, rng):
        guest_terminal = UserTerminal(
            "ut-guest", 0.0, 0.0, min_elevation_deg=25.0, party="guest",
            demand_mbps=100.0,
        )
        station = GroundStation(
            "gs-g", 0.5, 0.5, min_elevation_deg=10.0, party="guest"
        )
        constellation = Constellation([_overhead_sat("S1", party="owner")])
        grid = TimeGrid(duration_s=60.0, step_s=60.0)
        result = BentPipeSimulator(
            constellation, [guest_terminal], [station], grid
        ).run(rng)
        assert result.sessions
        assert result.sessions[0].is_spare_capacity
        assert result.spare_capacity_megabits() > 0.0


class TestSessionAccounting:
    def test_sessions_carry_the_party_pair(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1", party="p2")])
        grid = TimeGrid(duration_s=300.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        assert result.sessions
        assert {(s.terminal_party, s.sat_party) for s in result.sessions} == {
            ("p1", "p2")
        }
        assert result.spare_capacity_megabits() == pytest.approx(
            result.total_served_megabits
        )

    def test_own_party_sessions_are_not_spare_capacity(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        assert result.total_served_megabits > 0.0
        assert result.spare_capacity_megabits() == 0.0

    def test_session_volume_matches_served(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        session_volume = sum(s.volume_megabits for s in result.sessions)
        assert session_volume == pytest.approx(result.total_served_megabits, rel=1e-9)

    def test_sessions_sorted_by_start(self, equator_setup, rng):
        terminal, station = equator_setup
        constellation = Constellation(
            [_overhead_sat("S1"), _overhead_sat("S2", mean_anomaly_deg=90.0)]
        )
        grid = TimeGrid.hours(3.0, step_s=60.0)
        result = BentPipeSimulator(constellation, [terminal], [station], grid).run(rng)
        starts = [session.start_s for session in result.sessions]
        assert starts == sorted(starts)


class TestValidation:
    def test_rejects_no_terminals(self, equator_setup, rng):
        _, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=60.0, step_s=60.0)
        with pytest.raises(ValueError, match="terminal"):
            BentPipeSimulator(constellation, [], [station], grid)

    def test_rejects_no_stations(self, equator_setup, rng):
        terminal, _ = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=60.0, step_s=60.0)
        with pytest.raises(ValueError, match="station"):
            BentPipeSimulator(constellation, [terminal], [], grid)

    def test_rejects_demand_count_mismatch(self, equator_setup):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=60.0, step_s=60.0)
        with pytest.raises(ValueError, match="demand models"):
            BentPipeSimulator(
                constellation, [terminal], [station], grid,
                demand=[ConstantDemand(), ConstantDemand()],
            )

    def test_deterministic_given_seed(self, equator_setup):
        terminal, station = equator_setup
        constellation = Constellation([_overhead_sat("S1")])
        grid = TimeGrid(duration_s=300.0, step_s=60.0)
        simulator = BentPipeSimulator(constellation, [terminal], [station], grid)
        a = simulator.run(np.random.default_rng(9))
        b = simulator.run(np.random.default_rng(9))
        assert np.array_equal(a.served_mbps, b.served_mbps)
        assert len(a.sessions) == len(b.sessions)
