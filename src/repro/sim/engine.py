"""The bent-pipe session simulator.

This is the event-level heart of the substrate: it walks a time grid,
matches user terminals to satellites under the paper's architectural rules,
and emits session events + utilization accounting.

Rules implemented (paper §3.1–§3.2):

1. **Bent pipe** — a terminal can only be served through a satellite that is
   simultaneously visible from the terminal *and* from a ground station of
   the terminal's own party ("a participant's terminals connect to their own
   ground stations").
2. **Owner priority** — a satellite first serves its owner's terminals; only
   *spare* capacity is offered to other parties ("these satellites offer
   their spare capacity to other users of the network when not in use by the
   contributor's devices").
3. **Capacity limits** — each satellite has a nominal relay capacity
   (``Satellite.capacity_mbps``); allocations never exceed it.

Satellite selection among eligible candidates is
highest-remaining-capacity-first with deterministic tie-breaks, so runs are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import BOLTZMANN_DBW, SPEED_OF_LIGHT
from repro.constellation.satellite import Constellation
from repro.ground.sites import GroundStation, UserTerminal
from repro.obs import get_logger, metrics
from repro.obs import timeline as obs_timeline
from repro.obs.trace import span
from repro.links.bentpipe import BentPipeLink, RelayMode
from repro.links.channel import achievable_rates_bps_array
from repro.orbits.frames import gmst_rad
from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.events import SessionEvent, intervals_from_mask
from repro.sim.traffic import ConstantDemand, DemandModel
from repro.sim.visibility import VisibilityEngine

_LOG = get_logger(__name__)

_SESSIONS = metrics.counter("sim.engine.sessions")
_ALLOCATIONS = metrics.counter("sim.engine.allocations")
_HANDOVERS = metrics.counter("sim.engine.handovers")
_UNSERVED_STEPS = metrics.counter("sim.engine.unserved_demand_steps")
#: Peak of (total allocated load / total constellation capacity) over the run.
_SATURATION = metrics.gauge("sim.engine.capacity_saturation_peak")


def _snr_linear_array(budget, distance_m: np.ndarray) -> np.ndarray:
    """Vectorized version of :meth:`LinkBudget.snr_linear` (0 at inf range)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fspl_db = 20.0 * np.log10(
            4.0 * np.pi * distance_m * budget.frequency_hz / SPEED_OF_LIGHT
        )
        snr_db = (
            budget.eirp_dbw
            + budget.gain_over_temperature_db_k
            - fspl_db
            - budget.extra_losses_db
            - BOLTZMANN_DBW
            - 10.0 * np.log10(budget.bandwidth_hz)
        )
        snr = np.power(10.0, snr_db / 10.0)
    return np.where(np.isfinite(snr), snr, 0.0)


@dataclass
class SimulationResult:
    """Everything one engine run produces."""

    grid: TimeGrid
    sessions: List[SessionEvent]
    served_mbps: np.ndarray  # (terminals, T) rate actually delivered
    demand_mbps: np.ndarray  # (terminals, T) rate requested
    satellite_load_mbps: np.ndarray  # (satellites, T) capacity in use
    terminal_names: List[str]
    sat_ids: List[str]

    @property
    def total_served_megabits(self) -> float:
        return float(self.served_mbps.sum()) * self.grid.step_s

    def spare_capacity_megabits(self) -> float:
        """Volume served across party boundaries (the MP-LEO trade)."""
        return sum(
            session.volume_megabits
            for session in self.sessions
            if session.is_spare_capacity
        )


class BentPipeSimulator:
    """Time-stepped matching of terminals to satellites.

    Example:
        >>> simulator = BentPipeSimulator(constellation, terminals, stations,
        ...                               TimeGrid.hours(6.0))
        >>> result = simulator.run(np.random.default_rng(0))
    """

    def __init__(
        self,
        constellation: Constellation,
        terminals: Sequence[UserTerminal],
        stations: Sequence[GroundStation],
        grid: TimeGrid,
        demand: Optional[Sequence[DemandModel]] = None,
        chunk_size: Optional[int] = None,
        link: Optional[BentPipeLink] = None,
    ) -> None:
        """Args:
            link: Optional RF model.  When provided, per-assignment rates
                are additionally capped by the end-to-end achievable rate of
                the bent pipe at the instantaneous uplink/downlink slant
                ranges (MODCOD ladder); when None, geometry-only service at
                the demanded rate (the coverage experiments' model).
            (Remaining arguments as documented on the class.)
        """
        if not terminals:
            raise ValueError("at least one terminal is required")
        if not stations:
            raise ValueError("at least one ground station is required")
        self.constellation = constellation
        self.terminals = list(terminals)
        self.stations = list(stations)
        self.grid = grid
        self.link = link
        if demand is None:
            demand = [ConstantDemand(terminal.demand_mbps) for terminal in terminals]
        if len(demand) != len(terminals):
            raise ValueError(
                f"need {len(terminals)} demand models, got {len(demand)}"
            )
        self.demand_models = list(demand)
        self._engine = VisibilityEngine(grid, chunk_size=chunk_size)

    def _site_positions_eci(self, site) -> np.ndarray:
        """ECI positions of a fixed site over the grid: (T, 3)."""
        times = self.grid.times_s
        theta = gmst_rad(times, self.grid.gmst_at_epoch_rad)
        x, y, z = np.asarray(site.position_ecef, dtype=np.float64)
        cos_t = np.cos(theta)
        sin_t = np.sin(theta)
        return np.stack(
            [cos_t * x - sin_t * y, sin_t * x + cos_t * y, np.full(times.size, z)],
            axis=-1,
        )

    def _adaptive_rate_caps(self) -> Optional[np.ndarray]:
        """Per-(terminal, satellite, step) achievable rate caps in Mbps.

        Returns None when no link model is configured.  The downlink hop
        uses each party's nearest *visible* ground station; entries with no
        reachable station come out as 0 Mbps (they are also ineligible in
        the relayability tensor, so the zero never surfaces).
        """
        if self.link is None:
            return None
        propagator = BatchPropagator.from_columns(self.constellation.columns)
        sat_positions = propagator.positions_eci(self.grid.times_s)  # (N, T, 3)

        station_vis = self._engine.visibility(self.constellation, self.stations)
        station_ranges = []
        for station_index, station in enumerate(self.stations):
            positions = self._site_positions_eci(station)  # (T, 3)
            ranges = np.linalg.norm(sat_positions - positions[None], axis=-1)
            station_ranges.append(
                np.where(station_vis[station_index], ranges, np.inf)
            )
        station_range_stack = np.stack(station_ranges)  # (S_g, N, T)

        downlink_range_by_party = {}
        station_parties = [station.party for station in self.stations]
        for party in {terminal.party for terminal in self.terminals}:
            member = [
                index
                for index, station_party in enumerate(station_parties)
                if station_party == party
            ]
            if member:
                downlink_range_by_party[party] = station_range_stack[member].min(
                    axis=0
                )

        bandwidth = min(self.link.uplink.bandwidth_hz, self.link.downlink.bandwidth_hz)
        n_sats = len(self.constellation)
        n_times = self.grid.count
        caps = np.zeros((len(self.terminals), n_sats, n_times))
        for terminal_index, terminal in enumerate(self.terminals):
            down_range = downlink_range_by_party.get(terminal.party)
            if down_range is None:
                continue
            positions = self._site_positions_eci(terminal)
            up_range = np.linalg.norm(sat_positions - positions[None], axis=-1)
            snr_up = _snr_linear_array(self.link.uplink, up_range)
            snr_down = _snr_linear_array(self.link.downlink, down_range)
            with np.errstate(divide="ignore", invalid="ignore"):
                if self.link.mode is RelayMode.TRANSPARENT:
                    snr_total = np.where(
                        (snr_up > 0.0) & (snr_down > 0.0),
                        1.0 / (1.0 / np.maximum(snr_up, 1e-300)
                               + 1.0 / np.maximum(snr_down, 1e-300)),
                        0.0,
                    )
                else:
                    snr_total = np.minimum(snr_up, snr_down)
                snr_db = np.where(
                    snr_total > 0.0, 10.0 * np.log10(np.maximum(snr_total, 1e-300)),
                    -np.inf,
                )
            caps[terminal_index] = (
                achievable_rates_bps_array(snr_db, bandwidth) / 1e6
            )
        return caps

    def _relay_eligibility(self) -> Tuple[np.ndarray, np.ndarray]:
        """Visibility tensors.

        Returns:
            terminal_vis: (terminals, N, T) — terminal sees satellite.
            relayable: (terminals, N, T) — satellite can also reach a ground
                station of the terminal's party at the same instant.
        """
        terminal_vis = self._engine.visibility(self.constellation, self.terminals)
        station_vis = self._engine.visibility(self.constellation, self.stations)
        station_parties = [station.party for station in self.stations]

        relayable = np.zeros_like(terminal_vis)
        for terminal_index, terminal in enumerate(self.terminals):
            member = [
                index
                for index, party in enumerate(station_parties)
                if party == terminal.party
            ]
            if not member:
                continue  # No ground segment for this party: never relayable.
            party_station_vis = station_vis[member].any(axis=0)  # (N, T)
            relayable[terminal_index] = terminal_vis[terminal_index] & party_station_vis
        return terminal_vis, relayable

    def run(self, rng: np.random.Generator) -> SimulationResult:
        """Run the allocation over the whole grid."""
        with span("engine.eligibility"):
            _, relayable = self._relay_eligibility()
        with span("engine.rate_caps"):
            rate_caps = self._adaptive_rate_caps()
        n_terminals, n_sats, n_times = relayable.shape

        demand = np.stack(
            [
                model.demand_mbps(self.grid, rng)
                for model in self.demand_models
            ]
        )  # (terminals, T)
        capacity = np.array(
            [satellite.capacity_mbps for satellite in self.constellation]
        )
        sat_parties = [satellite.party for satellite in self.constellation]
        terminal_parties = [terminal.party for terminal in self.terminals]

        served = np.zeros_like(demand)
        sat_load = np.zeros((n_sats, n_times))
        # (terminals, T) satellite index serving each terminal, -1 when unserved.
        assignment = np.full((n_terminals, n_times), -1, dtype=np.int64)

        # Owner's terminals first at each step (rule 2), then others; within a
        # class, terminals iterate in a fixed order for reproducibility.
        own_pairs = [
            (t, n)
            for t in range(n_terminals)
            for n in range(n_sats)
            if terminal_parties[t] == sat_parties[n]
        ]
        own_sat_of_terminal: Dict[int, set] = {}
        for t, n in own_pairs:
            own_sat_of_terminal.setdefault(t, set()).add(n)

        with span("engine.allocate"):
            for step in range(n_times):
                remaining = capacity.astype(np.float64).copy()
                eligible = relayable[:, :, step]  # (terminals, N)
                for own_pass in (True, False):
                    for terminal_index in range(n_terminals):
                        want = demand[terminal_index, step]
                        if want <= 0.0 or assignment[terminal_index, step] >= 0:
                            continue
                        candidates = np.flatnonzero(eligible[terminal_index])
                        if candidates.size == 0:
                            continue
                        own_sats = own_sat_of_terminal.get(terminal_index, set())
                        if own_pass:
                            candidates = np.array(
                                [c for c in candidates if c in own_sats],
                                dtype=np.int64,
                            )
                        if candidates.size == 0:
                            continue
                        candidates = candidates[remaining[candidates] > 0.0]
                        if rate_caps is not None and candidates.size:
                            candidates = candidates[
                                rate_caps[terminal_index, candidates, step] > 0.0
                            ]
                        if candidates.size == 0:
                            continue
                        # Highest remaining capacity first; ties break on index.
                        best = candidates[np.argmax(remaining[candidates])]
                        grant = min(want, remaining[best])
                        if rate_caps is not None:
                            grant = min(
                                grant, float(rate_caps[terminal_index, best, step])
                            )
                        remaining[best] -= grant
                        served[terminal_index, step] = grant
                        sat_load[best, step] += grant
                        assignment[terminal_index, step] = best

        sessions = self._sessions_from_assignment(
            assignment, served, terminal_parties, sat_parties
        )
        self._record_run_metrics(assignment, demand, sat_load, capacity, sessions)
        with span("engine.timeline"):
            self._emit_timeline_events(
                assignment, demand, sat_load, capacity, sessions,
                terminal_parties, sat_parties,
            )
        return SimulationResult(
            grid=self.grid,
            sessions=sessions,
            served_mbps=served,
            demand_mbps=demand,
            satellite_load_mbps=sat_load,
            terminal_names=[terminal.name for terminal in self.terminals],
            sat_ids=[satellite.sat_id for satellite in self.constellation],
        )

    def _emit_timeline_events(
        self,
        assignment: np.ndarray,
        demand: np.ndarray,
        sat_load: np.ndarray,
        capacity: np.ndarray,
        sessions: Sequence[SessionEvent],
        terminal_parties: Sequence[str],
        sat_parties: Sequence[str],
    ) -> None:
        """Narrate one engine run onto the shared simulation timeline.

        Emitted kinds (see :mod:`repro.obs.timeline`):

        * ``allocation.grant`` — one windowed event per session, on the
          serving satellite's track.
        * ``allocation.deny`` — windowed, per contiguous interval in which a
          terminal demanded capacity but no satellite could serve it.
        * ``handover`` — instant, when a terminal switches satellites at
          consecutive steps.
        * ``capacity.saturated`` — windowed, per interval a satellite ran at
          its full nominal capacity.
        """
        grid = self.grid
        step_s = grid.step_s
        times = grid.times_s
        for session in sessions:
            obs_timeline.emit(
                obs_timeline.ALLOC_GRANT,
                session.start_s,
                session.sat_id,
                party=session.sat_party,
                duration_s=session.duration_s,
                terminal=session.terminal_name,
                terminal_party=session.terminal_party,
                rate_mbps=session.rate_mbps,
                spare=session.is_spare_capacity,
            )
        unserved = (demand > 0.0) & (assignment < 0)
        for terminal_index, terminal in enumerate(self.terminals):
            mask = unserved[terminal_index]
            if not mask.any():
                continue
            for start_s, stop_s in intervals_from_mask(mask, step_s, grid.start_s):
                obs_timeline.emit(
                    obs_timeline.ALLOC_DENY,
                    start_s,
                    terminal.name,
                    party=terminal_parties[terminal_index],
                    duration_s=stop_s - start_s,
                )
        before, after = assignment[:, :-1], assignment[:, 1:]
        switches = (before >= 0) & (after >= 0) & (before != after)
        for terminal_index, step in zip(*np.nonzero(switches)):
            obs_timeline.emit(
                obs_timeline.HANDOVER,
                float(times[step + 1]),
                self.terminals[terminal_index].name,
                party=terminal_parties[terminal_index],
                from_sat=self.constellation[int(before[terminal_index, step])].sat_id,
                to_sat=self.constellation[int(after[terminal_index, step])].sat_id,
            )
        # Full-capacity intervals per satellite (float-tolerant equality).
        saturated = (capacity[:, None] > 0.0) & (
            sat_load >= capacity[:, None] * (1.0 - 1e-9)
        )
        for sat_index in np.flatnonzero(saturated.any(axis=1)):
            satellite = self.constellation[int(sat_index)]
            for start_s, stop_s in intervals_from_mask(
                saturated[sat_index], step_s, grid.start_s
            ):
                obs_timeline.emit(
                    obs_timeline.CAPACITY_SATURATED,
                    start_s,
                    satellite.sat_id,
                    party=sat_parties[int(sat_index)],
                    duration_s=stop_s - start_s,
                    capacity_mbps=float(capacity[sat_index]),
                )

    @staticmethod
    def _record_run_metrics(
        assignment: np.ndarray,
        demand: np.ndarray,
        sat_load: np.ndarray,
        capacity: np.ndarray,
        sessions: Sequence[SessionEvent],
    ) -> None:
        """Account one engine run on the shared metrics registry."""
        allocations = int(np.count_nonzero(assignment >= 0))
        # A handover is a terminal switching between two satellites at
        # consecutive steps (gaps in service are not handovers).
        before, after = assignment[:, :-1], assignment[:, 1:]
        handovers = int(
            np.count_nonzero((before >= 0) & (after >= 0) & (before != after))
        )
        unserved = int(np.count_nonzero((demand > 0.0) & (assignment < 0)))
        _SESSIONS.inc(len(sessions))
        _ALLOCATIONS.inc(allocations)
        _HANDOVERS.inc(handovers)
        _UNSERVED_STEPS.inc(unserved)
        total_capacity = float(capacity.sum())
        if total_capacity > 0.0:
            peak = float(sat_load.sum(axis=0).max()) / total_capacity
            _SATURATION.set(max(_SATURATION.value, peak))
        _LOG.info(
            "engine run: %d sessions, %d allocations, %d handovers, "
            "%d unserved demand steps",
            len(sessions), allocations, handovers, unserved,
        )

    def _sessions_from_assignment(
        self,
        assignment: np.ndarray,
        served: np.ndarray,
        terminal_parties: Sequence[str],
        sat_parties: Sequence[str],
    ) -> List[SessionEvent]:
        """Collapse per-step assignments into contiguous session events."""
        sessions: List[SessionEvent] = []
        step_s = self.grid.step_s
        station_of_party = {station.party: station.name for station in self.stations}
        for terminal_index, terminal in enumerate(self.terminals):
            row = assignment[terminal_index]
            for sat_index in np.unique(row[row >= 0]):
                mask = row == sat_index
                for start_s, stop_s in intervals_from_mask(
                    mask, step_s, self.grid.start_s
                ):
                    begin = int((start_s - self.grid.start_s) / step_s)
                    end = int((stop_s - self.grid.start_s) / step_s)
                    rate = float(served[terminal_index, begin:end].mean())
                    sessions.append(
                        SessionEvent(
                            terminal_name=terminal.name,
                            sat_id=self.constellation[int(sat_index)].sat_id,
                            station_name=station_of_party.get(terminal.party, ""),
                            terminal_party=terminal_parties[terminal_index],
                            sat_party=sat_parties[int(sat_index)],
                            start_s=start_s,
                            stop_s=stop_s,
                            rate_mbps=rate,
                        )
                    )
        sessions.sort(key=lambda session: (session.start_s, session.terminal_name))
        return sessions
