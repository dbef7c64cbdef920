"""Satellite-to-ground downlink scheduling.

The paper's lineage (its authors' L2D2 / "Transmitting, Fast and Slow"
work, cited as [39, 45, 46]) treats ground-station scheduling as a core
satellite-network substrate: many satellites accumulate data, few stations
can receive, and each station antenna serves one satellite at a time.
MP-LEO inherits the problem on the feeder side — a party's rented GSaaS
antennas must be scheduled across every satellite carrying its traffic.

This module provides a time-stepped scheduler over a dense boolean
(S, N, T) visibility tensor with pluggable policies, plus the
throughput/latency/fairness metrics scheduling papers report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.obs import timeline as obs_timeline
from repro.sim.clock import TimeGrid
from repro.sim.events import intervals_from_mask


class SchedulingPolicy(enum.Enum):
    """Which visible satellite a free antenna picks."""

    MAX_BACKLOG = "max_backlog"  # Drain the fullest buffer first.
    ROUND_ROBIN = "round_robin"  # Rotate for fairness.
    FIRST_VISIBLE = "first_visible"  # Naive baseline: lowest index wins.


@dataclass(frozen=True)
class DownlinkScheduleResult:
    """Outcome of one scheduling run."""

    grid: TimeGrid
    downlinked_megabits: np.ndarray  # (N,) per satellite.
    remaining_backlog_megabits: np.ndarray  # (N,) at horizon end.
    generated_megabits: np.ndarray  # (N,) total produced.
    station_busy_fraction: np.ndarray  # (S,) antenna utilization.
    assignment: np.ndarray  # (S, T) satellite index served, -1 if idle.

    @property
    def total_downlinked_megabits(self) -> float:
        return float(self.downlinked_megabits.sum())

    @property
    def delivery_fraction(self) -> float:
        """Fraction of generated data that reached the ground."""
        generated = float(self.generated_megabits.sum())
        if generated == 0.0:
            return 1.0
        return self.total_downlinked_megabits / generated

    def fairness_index(self) -> float:
        """Jain's index over per-satellite delivery fractions."""
        with np.errstate(invalid="ignore", divide="ignore"):
            fractions = np.where(
                self.generated_megabits > 0.0,
                self.downlinked_megabits / self.generated_megabits,
                1.0,
            )
        total = fractions.sum()
        squares = (fractions**2).sum()
        if squares == 0.0:
            return 1.0
        return float(total**2 / (fractions.size * squares))


class DownlinkScheduler:
    """Schedules station antennas over satellites on a time grid.

    Args:
        visibility: Boolean (S, N, T) — station s sees satellite n at step t
            (compute with :class:`~repro.sim.visibility.VisibilityEngine`
            using the stations as sites).
        grid: The matching time grid.
        downlink_rate_mbps: Drain rate while a satellite is being served.
        generation_rate_mbps: (N,) or scalar — how fast each satellite
            accumulates data to downlink.
        policy: Antenna assignment policy.

    Raises:
        ValueError: On shape mismatches or non-positive rates.
    """

    def __init__(
        self,
        visibility: np.ndarray,
        grid: TimeGrid,
        downlink_rate_mbps: float = 500.0,
        generation_rate_mbps=10.0,
        policy: SchedulingPolicy = SchedulingPolicy.MAX_BACKLOG,
    ) -> None:
        self.visibility = np.asarray(visibility, dtype=bool)
        if self.visibility.ndim != 3:
            raise ValueError(
                f"visibility must be (S, N, T), got {self.visibility.shape}"
            )
        if self.visibility.shape[2] != grid.count:
            raise ValueError(
                f"visibility has {self.visibility.shape[2]} steps, grid has "
                f"{grid.count}"
            )
        if downlink_rate_mbps <= 0.0:
            raise ValueError("downlink rate must be positive")
        self.grid = grid
        self.downlink_rate_mbps = downlink_rate_mbps
        n_sats = self.visibility.shape[1]
        generation = np.broadcast_to(
            np.asarray(generation_rate_mbps, dtype=np.float64), (n_sats,)
        ).copy()
        if np.any(generation < 0.0):
            raise ValueError("generation rates must be non-negative")
        self.generation_rate_mbps = generation
        self.policy = policy

    def run(self) -> DownlinkScheduleResult:
        """Run the schedule over the whole horizon."""
        n_stations, n_sats, n_times = self.visibility.shape
        step_s = self.grid.step_s
        backlog = np.zeros(n_sats)
        downlinked = np.zeros(n_sats)
        assignment = np.full((n_stations, n_times), -1, dtype=np.int64)
        round_robin_cursor = 0

        for step in range(n_times):
            backlog += self.generation_rate_mbps * step_s
            claimed = np.zeros(n_sats, dtype=bool)  # One antenna per sat.
            for station in range(n_stations):
                candidates = np.flatnonzero(
                    self.visibility[station, :, step] & ~claimed & (backlog > 0.0)
                )
                if candidates.size == 0:
                    continue
                if self.policy is SchedulingPolicy.MAX_BACKLOG:
                    chosen = candidates[int(np.argmax(backlog[candidates]))]
                elif self.policy is SchedulingPolicy.ROUND_ROBIN:
                    # First candidate at or after the rotating cursor.
                    shifted = (candidates - round_robin_cursor) % n_sats
                    chosen = candidates[int(np.argmin(shifted))]
                    round_robin_cursor = (int(chosen) + 1) % n_sats
                else:
                    chosen = candidates[0]
                drained = min(backlog[chosen], self.downlink_rate_mbps * step_s)
                backlog[chosen] -= drained
                downlinked[chosen] += drained
                claimed[chosen] = True
                assignment[station, step] = chosen

        _emit_timeline_events(assignment, self.grid, self.policy)
        generated = self.generation_rate_mbps * self.grid.duration_s
        return DownlinkScheduleResult(
            grid=self.grid,
            downlinked_megabits=downlinked,
            remaining_backlog_megabits=backlog,
            generated_megabits=generated,
            station_busy_fraction=(assignment >= 0).mean(axis=1),
            assignment=assignment,
        )


def _emit_timeline_events(
    assignment: np.ndarray, grid: TimeGrid, policy: SchedulingPolicy
) -> None:
    """Narrate the antenna schedule onto the shared simulation timeline.

    One windowed ``allocation.grant`` per contiguous (station, satellite)
    serving interval, plus an instant ``handover`` whenever a station
    retargets between consecutive steps.  Stations are indexed (the
    scheduler sees only visibility rows), so tracks are labeled
    ``station-<index>``.
    """
    step_s = grid.step_s
    times = grid.times_s
    for station_index in range(assignment.shape[0]):
        row = assignment[station_index]
        station = f"station-{station_index}"
        for sat_index in np.unique(row[row >= 0]):
            mask = row == sat_index
            for start_s, stop_s in intervals_from_mask(
                mask, step_s, grid.start_s
            ):
                obs_timeline.emit(
                    obs_timeline.ALLOC_GRANT,
                    start_s,
                    station,
                    duration_s=stop_s - start_s,
                    satellite=int(sat_index),
                    policy=policy.value,
                )
        before, after = row[:-1], row[1:]
        for step in np.flatnonzero(
            (before >= 0) & (after >= 0) & (before != after)
        ):
            obs_timeline.emit(
                obs_timeline.HANDOVER,
                float(times[step + 1]),
                station,
                from_sat=int(before[step]),
                to_sat=int(after[step]),
            )


def compare_policies(
    visibility: np.ndarray,
    grid: TimeGrid,
    downlink_rate_mbps: float = 500.0,
    generation_rate_mbps=10.0,
) -> Dict[SchedulingPolicy, DownlinkScheduleResult]:
    """Run every policy on the same (S, N, T) visibility (for ablations)."""
    return {
        policy: DownlinkScheduler(
            visibility,
            grid,
            downlink_rate_mbps=downlink_rate_mbps,
            generation_rate_mbps=generation_rate_mbps,
            policy=policy,
        ).run()
        for policy in SchedulingPolicy
    }
