"""Satellite utilization and idle-time accounting.

The paper's Fig. 3 measures "each satellite's idle time, i.e., times when it
is not connected to a user terminal."  A satellite is *active* at a time step
when at least one user terminal is inside its footprint, and *idle*
otherwise.  With the spare-capacity sharing of MP-LEO the same accounting
splits an active satellite's time between serving its owner's terminals and
serving other parties' terminals.

The utilization and spare-capacity accountants have two front-ends: one
over a dense (S, N, T) visibility tensor (grid engine) and an
``*_intervals`` sibling over
:class:`~repro.sim.intervals.ContactIntervals` (intervals engine).  The
interval variants measure continuous time via union sweeps instead of
counting samples, so they agree with the grid within the usual one-scan-step
contract rather than bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.sim.clock import TimeGrid
from repro.sim.intervals import ContactIntervals


@dataclass(frozen=True)
class UtilizationStats:
    """Per-constellation utilization summary."""

    mean_idle_fraction: float
    mean_active_fraction: float
    per_satellite_idle_fraction: np.ndarray  # (N,)

    @property
    def mean_idle_percent(self) -> float:
        return 100.0 * self.mean_idle_fraction


def utilization_from_visibility(visibility: np.ndarray) -> UtilizationStats:
    """Utilization statistics from a visibility tensor.

    Args:
        visibility: Boolean tensor of shape (S, N, T) — terminal s sees
            satellite n at time t.

    Returns:
        :class:`UtilizationStats`; a satellite is active when any terminal
        sees it.
    """
    visibility = np.asarray(visibility, dtype=bool)
    if visibility.ndim != 3:
        raise ValueError(f"visibility must be (S, N, T), got {visibility.shape}")
    active = visibility.any(axis=0)  # (N, T)
    active_fraction = active.mean(axis=1)  # (N,)
    idle_fraction = 1.0 - active_fraction
    return UtilizationStats(
        mean_idle_fraction=float(idle_fraction.mean()),
        mean_active_fraction=float(active_fraction.mean()),
        per_satellite_idle_fraction=idle_fraction,
    )


def utilization_from_intervals(contacts: ContactIntervals) -> UtilizationStats:
    """Utilization statistics from analytic contact windows.

    The continuous-time analogue of :func:`utilization_from_visibility`:
    a satellite is active while any terminal's contact window covers the
    instant, measured exactly by a per-satellite union sweep.
    """
    active_fraction = contacts.satellite_active_fractions()
    idle_fraction = 1.0 - active_fraction
    return UtilizationStats(
        mean_idle_fraction=float(idle_fraction.mean()) if idle_fraction.size else 0.0,
        mean_active_fraction=(
            float(active_fraction.mean()) if active_fraction.size else 0.0
        ),
        per_satellite_idle_fraction=idle_fraction,
    )


@dataclass(frozen=True)
class SpareCapacityLedger:
    """Split of each satellite's active time between own-party and others.

    Attributes:
        own_fraction: (N,) fraction of the horizon each satellite serves its
            owner's terminals.
        spare_fraction: (N,) fraction serving only other parties' terminals
            (the capacity MP-LEO participants trade).
        idle_fraction: (N,) fraction covering no terminal at all.
    """

    own_fraction: np.ndarray
    spare_fraction: np.ndarray
    idle_fraction: np.ndarray

    def __post_init__(self) -> None:
        total = self.own_fraction + self.spare_fraction + self.idle_fraction
        if not np.allclose(total, 1.0):
            raise ValueError("fractions must sum to 1 per satellite")


def spare_capacity_split(
    visibility: np.ndarray,
    terminal_parties: Sequence[str],
    satellite_parties: Sequence[str],
) -> SpareCapacityLedger:
    """Split satellite time into own-use / spare-use / idle.

    Args:
        visibility: Boolean (S, N, T) tensor.
        terminal_parties: Party owning each terminal (length S).
        satellite_parties: Party owning each satellite (length N).

    A time step counts as *own use* when at least one of the owner's
    terminals is visible (the owner has priority on its own satellite,
    matching the paper's "offer their spare capacity ... when not in use by
    the contributor's devices").  It counts as *spare use* when only other
    parties' terminals are visible.
    """
    visibility = np.asarray(visibility, dtype=bool)
    if visibility.ndim != 3:
        raise ValueError(f"visibility must be (S, N, T), got {visibility.shape}")
    site_count, sat_count, _ = visibility.shape
    if len(terminal_parties) != site_count:
        raise ValueError(
            f"need {site_count} terminal parties, got {len(terminal_parties)}"
        )
    if len(satellite_parties) != sat_count:
        raise ValueError(
            f"need {sat_count} satellite parties, got {len(satellite_parties)}"
        )

    terminal_party_array = np.array(terminal_parties)
    own_fraction = np.empty(sat_count)
    spare_fraction = np.empty(sat_count)
    idle_fraction = np.empty(sat_count)
    for sat_index, sat_party in enumerate(satellite_parties):
        own_terminals = terminal_party_array == sat_party
        sat_visibility = visibility[:, sat_index, :]  # (S, T)
        own_active = (
            sat_visibility[own_terminals].any(axis=0)
            if own_terminals.any()
            else np.zeros(sat_visibility.shape[1], dtype=bool)
        )
        any_active = sat_visibility.any(axis=0)
        spare_active = any_active & ~own_active
        own_fraction[sat_index] = own_active.mean()
        spare_fraction[sat_index] = spare_active.mean()
        idle_fraction[sat_index] = 1.0 - any_active.mean()
    return SpareCapacityLedger(own_fraction, spare_fraction, idle_fraction)


def spare_capacity_split_intervals(
    contacts: ContactIntervals,
    terminal_parties: Sequence[str],
    satellite_parties: Sequence[str],
) -> SpareCapacityLedger:
    """Interval-native own-use / spare-use / idle split.

    Same semantics as :func:`spare_capacity_split` in continuous time.
    Because the owner's serving time is a subset of the any-terminal
    serving time, spare time is measured as the difference of the two
    union sweeps — no explicit ``any & ~own`` mask is needed.
    """
    if len(terminal_parties) != contacts.n_sites:
        raise ValueError(
            f"need {contacts.n_sites} terminal parties, got {len(terminal_parties)}"
        )
    if len(satellite_parties) != contacts.n_satellites:
        raise ValueError(
            f"need {contacts.n_satellites} satellite parties,"
            f" got {len(satellite_parties)}"
        )
    span = contacts.span_s
    terminal_party_array = np.array(terminal_parties)
    sat_count = contacts.n_satellites
    own_fraction = np.zeros(sat_count)
    spare_fraction = np.zeros(sat_count)
    idle_fraction = np.ones(sat_count)
    if span == 0.0:
        return SpareCapacityLedger(
            np.zeros(sat_count), np.zeros(sat_count), np.ones(sat_count)
        )
    for sat_index, sat_party in enumerate(satellite_parties):
        own_terminals = np.flatnonzero(terminal_party_array == sat_party)
        any_s = contacts.satellite_union(sat_index).total_s
        own_s = (
            contacts.satellite_union(sat_index, site_indices=own_terminals).total_s
            if own_terminals.size
            else 0.0
        )
        own_fraction[sat_index] = own_s / span
        spare_fraction[sat_index] = (any_s - own_s) / span
        idle_fraction[sat_index] = 1.0 - any_s / span
    return SpareCapacityLedger(own_fraction, spare_fraction, idle_fraction)


def idle_time_hours(
    visibility: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """Per-satellite idle time in hours over the grid horizon."""
    stats = utilization_from_visibility(visibility)
    return stats.per_satellite_idle_fraction * grid.duration_s / 3600.0


def party_capacity_shares(
    visibility: np.ndarray,
    terminal_parties: Sequence[str],
    satellite_parties: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """Per-party summary of the spare-capacity economy.

    Returns:
        Map party -> {"own": .., "spare_provided": .., "idle": ..} where each
        value is the mean fraction over the party's satellites.  Parties with
        no satellites are omitted.
    """
    ledger = spare_capacity_split(visibility, terminal_parties, satellite_parties)
    shares: Dict[str, Dict[str, float]] = {}
    parties = np.array(satellite_parties)
    for party in sorted(set(satellite_parties)):
        member = parties == party
        shares[party] = {
            "own": float(ledger.own_fraction[member].mean()),
            "spare_provided": float(ledger.spare_fraction[member].mean()),
            "idle": float(ledger.idle_fraction[member].mean()),
        }
    return shares
