"""ISL-capable bent-pipe session engine (the §4 variant, end to end).

:class:`IslBentPipeSimulator` extends the baseline
:class:`~repro.sim.engine.BentPipeSimulator` with inter-satellite
forwarding: a satellite may serve a terminal when it can reach a ground
station *of the terminal's party* either directly or over ISL hops.  All
other engine rules (owner priority, capacity limits, session extraction)
are inherited unchanged, so baseline-vs-ISL comparisons isolate exactly the
architectural difference the paper discusses.

Cost note: eligibility needs the pairwise ISL matrix at every time step —
O(N^2 * T).  Fine for the tens-to-hundreds of satellites the engine-level
experiments use; the pure-coverage ISL analysis in
:mod:`repro.links.isl` is the right tool at megaconstellation scale.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constellation.satellite import Constellation
from repro.ground.sites import GroundStation, UserTerminal
from repro.links.isl import (
    DEFAULT_GRAZING_ALTITUDE_M,
    DEFAULT_MAX_RANGE_M,
    isl_visibility,
    relayable_with_isl,
)
from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.engine import BentPipeSimulator
from repro.sim.traffic import DemandModel


class IslBentPipeSimulator(BentPipeSimulator):
    """Bent-pipe engine with inter-satellite forwarding.

    Args:
        max_isl_range_m: Maximum ISL link range.
        max_hops: Optional cap on forwarding hops (None = unlimited).
        grazing_altitude_m: Line-of-sight clearance altitude.
        (Remaining arguments as in :class:`BentPipeSimulator`.)
    """

    def __init__(
        self,
        constellation: Constellation,
        terminals: Sequence[UserTerminal],
        stations: Sequence[GroundStation],
        grid: TimeGrid,
        demand: Optional[Sequence[DemandModel]] = None,
        chunk_size: Optional[int] = None,
        max_isl_range_m: float = DEFAULT_MAX_RANGE_M,
        max_hops: Optional[int] = None,
        grazing_altitude_m: float = DEFAULT_GRAZING_ALTITUDE_M,
    ) -> None:
        super().__init__(
            constellation, terminals, stations, grid,
            demand=demand, chunk_size=chunk_size,
        )
        if max_isl_range_m <= 0.0:
            raise ValueError("max ISL range must be positive")
        if max_hops is not None and max_hops < 1:
            raise ValueError("max hops must be at least 1 (or None)")
        self.max_isl_range_m = max_isl_range_m
        self.max_hops = max_hops
        self.grazing_altitude_m = grazing_altitude_m

    def _relay_eligibility(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eligibility with ISL forwarding folded in.

        Returns the same (terminal_vis, relayable) pair as the base class;
        only the relayable tensor gains the ISL-reachable entries.
        """
        terminal_vis = self._engine.visibility(self.constellation, self.terminals)
        station_vis = self._engine.visibility(self.constellation, self.stations)
        station_parties = [station.party for station in self.stations]
        terminal_parties = [terminal.party for terminal in self.terminals]
        parties = sorted(
            {party for party in terminal_parties if party}
        )

        # Station visibility per party: (P, N, T).
        per_party_station_vis = {}
        for party in parties:
            member = [
                index
                for index, station_party in enumerate(station_parties)
                if station_party == party
            ]
            if member:
                per_party_station_vis[party] = station_vis[member].any(axis=0)

        n_times = terminal_vis.shape[2]
        propagator = BatchPropagator.from_columns(self.constellation.columns)
        positions = propagator.positions_eci(self.grid.times_s)  # (N, T, 3)

        # Satellite "can reach a party's station" per step, with forwarding.
        reach = {
            party: np.zeros(per_party_station_vis[party].shape, dtype=bool)
            for party in per_party_station_vis
        }
        any_terminal_vis = terminal_vis.any(axis=0)  # (N, T)
        for step in range(n_times):
            # Skip steps where no terminal sees any satellite at all.
            if not any_terminal_vis[:, step].any():
                for party in reach:
                    reach[party][:, step] = per_party_station_vis[party][:, step]
                continue
            feasible = isl_visibility(
                positions[:, step, :],
                max_range_m=self.max_isl_range_m,
                grazing_altitude_m=self.grazing_altitude_m,
            )
            all_sats_visible = np.ones(feasible.shape[0], dtype=bool)
            for party, station_mask in per_party_station_vis.items():
                reach[party][:, step] = relayable_with_isl(
                    all_sats_visible,
                    station_mask[:, step],
                    feasible,
                    max_hops=self.max_hops,
                )

        relayable = np.zeros_like(terminal_vis)
        for terminal_index, party in enumerate(terminal_parties):
            if party not in reach:
                continue
            relayable[terminal_index] = terminal_vis[terminal_index] & reach[party]
        return terminal_vis, relayable
