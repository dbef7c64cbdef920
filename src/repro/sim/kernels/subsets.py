"""Subset-query batch kernels over the packed visibility tensor.

Attrition / withdrawal / skew trajectories evaluate coverage for *many*
satellite subsets of one fleet.  Re-running a full visibility build per
composition — or even gathering from the full-pool tensor when only 500 of
4400+ satellites matter — pays for geometry the queries never touch.
:class:`SubsetQuery` precomputes one per-(satellite, site) contribution
structure, the packed bit rows of exactly the fleet under study, and then
answers weighted-city coverage, idle capacity, and k-coverage for
arbitrary subsets via popcount-on-masked-rows
(:func:`repro.sim.visibility.or_popcount`).

Two construction paths, bit-identical by the kernel layer's contract:

* :meth:`SubsetQuery.from_visibility` gathers fleet rows out of an
  already-built full-pool tensor (free when the cache is warm);
* :meth:`SubsetQuery.build` streams a fleet-scoped build through
  :func:`repro.sim.kernels.plan_stream` — on the all-circular fast path
  the per-satellite trig is elementwise, so the fleet-scoped rows match
  the full-pool rows bit for bit (pinned by tests/sim/test_subsets.py).

Query semantics mirror :class:`repro.sim.visibility.PackedVisibility`
exactly (including empty-subset behaviour); the brute-force agreement
tests compare both against unpacked boolean reductions.

The interval-native equivalent is
:class:`repro.sim.intervals.IntervalSubsetQuery`, built over a
fleet-restricted CSR window structure and answered by incremental event
sweeps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.kernels import (
    SiteGeometry,
    checked_index,
    checked_indices,
    plan_stream,
    stream_packed_bits,
)
from repro.sim.visibility import or_popcount, satellite_major


def as_sorted_fleet(fleet) -> np.ndarray:
    """Normalize a fleet selection to a sorted intp array."""
    array = np.sort(np.asarray(fleet, dtype=np.intp).reshape(-1))
    if array.size > 1 and np.any(array[1:] == array[:-1]):
        raise ValueError("fleet indices must be unique")
    return array


def fleet_positions(fleet: np.ndarray, subset) -> np.ndarray:
    """Positions of pool-index ``subset`` within a sorted ``fleet``.

    Raises KeyError if any subset satellite is outside the fleet.
    """
    subset = np.asarray(subset, dtype=np.intp).reshape(-1)
    local = np.searchsorted(fleet, subset)
    local = np.minimum(local, fleet.size - 1) if fleet.size else local
    if subset.size and (
        fleet.size == 0 or not np.array_equal(fleet[local], subset)
    ):
        raise KeyError("subset contains satellites outside the fleet")
    return local


class SubsetQuery:
    """Precomputed packed rows of one fleet; cheap arbitrary-subset queries.

    ``fleet`` is None when the query spans the whole pool (subset indices
    are then raw pool indices, and out-of-range ones raise IndexError);
    otherwise it is the sorted pool-index array the packed rows were
    gathered/built for, and every queried subset must be drawn from it.

    The rows use :class:`repro.sim.visibility.PackedVisibility`'s layout:
    ``by_satellite`` is one C-contiguous (F, S, B) buffer and ``packed``
    its (S, F, B) transpose view.
    """

    def __init__(
        self,
        packed: np.ndarray,
        n_times: int,
        fleet: Optional[np.ndarray] = None,
    ) -> None:
        if packed.ndim != 3 or packed.dtype != np.uint8:
            raise ValueError(
                f"packed must be (S, F, B) uint8, got {packed.dtype} "
                f"{packed.shape}"
            )
        if fleet is not None and fleet.size != packed.shape[1]:
            raise ValueError(
                f"fleet has {fleet.size} indices but packed holds "
                f"{packed.shape[1]} satellite rows"
            )
        self.by_satellite = satellite_major(packed)
        self.packed = self.by_satellite.transpose(1, 0, 2)
        self.n_times = int(n_times)
        self.fleet = fleet

    # -- construction ------------------------------------------------------

    @classmethod
    def from_visibility(cls, visibility, fleet=None) -> "SubsetQuery":
        """Gather fleet rows from a built tensor (zero-copy when pool-wide).

        Gathering is exact by construction: the rows are the very bytes
        the full build produced, and one contiguous run per satellite.
        """
        if fleet is None:
            return cls(visibility.packed, visibility.n_times, None)
        fleet = as_sorted_fleet(fleet)
        rows = visibility.by_satellite[fleet]
        return cls(rows.transpose(1, 0, 2), visibility.n_times, fleet)

    @classmethod
    def build(
        cls,
        propagator: BatchPropagator,
        geometry: SiteGeometry,
        grid: TimeGrid,
        fleet,
        chunk_size: Optional[int] = None,
        cull: bool = True,
    ) -> "SubsetQuery":
        """Stream a fleet-scoped packed build — skips the rest of the pool.

        Orders of magnitude cheaper than a full-pool build when the fleet
        is small (the trig and the screen scale with the fleet, not the pool).
        """
        fleet = as_sorted_fleet(fleet)
        plan = plan_stream(
            propagator.subset(fleet), geometry, grid,
            chunk_size=chunk_size, cull=cull, pack=True,
        )
        packed = stream_packed_bits(plan)
        return cls(packed, grid.count, fleet)

    # -- indexing ----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.by_satellite.shape[1]

    @property
    def n_satellites(self) -> int:
        """Satellites held by the precompute (the fleet size)."""
        return self.by_satellite.shape[0]

    def _rows_for(self, subset) -> np.ndarray:
        """Map pool-index subsets to local packed rows (identity pool-wide)."""
        if subset is None:
            return np.arange(self.n_satellites, dtype=np.intp)
        if self.fleet is None:
            return checked_indices(subset, self.n_satellites, "satellite")
        return fleet_positions(self.fleet, subset)

    # -- queries -----------------------------------------------------------

    def coverage_fractions(self, subset=None) -> np.ndarray:
        """Covered fraction per site (S,) for one satellite subset."""
        local = self._rows_for(subset)
        if local.size == 0:
            return np.zeros(self.n_sites)
        counts = or_popcount(self.by_satellite[local], axis=0)
        return counts / float(self.n_times)

    def satellite_active_fractions(
        self, subset=None, site_indices=None
    ) -> np.ndarray:
        """Active fraction per subset satellite (any selected site visible)."""
        rows = self.by_satellite[self._rows_for(subset)]
        if site_indices is not None:
            rows = rows[:, checked_indices(site_indices, self.n_sites, "site"), :]
        if rows.shape[0] == 0 or rows.shape[1] == 0:
            return np.zeros(rows.shape[0])
        counts = or_popcount(rows, axis=1)
        return counts / float(self.n_times)

    def visible_counts(self, site_index: int, subset=None) -> np.ndarray:
        """Per-step visible-satellite counts (T,) at one site."""
        site = checked_index(site_index, self.n_sites, "site")
        local = self._rows_for(subset)
        if local.size == 0:
            return np.zeros(self.n_times, dtype=np.int64)
        bits = np.unpackbits(self.by_satellite[local, site], axis=1)
        return bits[:, : self.n_times].sum(axis=0, dtype=np.int64)

    def k_coverage_fraction(self, site_index: int, k: int, subset=None) -> float:
        """Fraction of steps with >= k subset satellites visible at a site."""
        if self.n_times == 0:
            return 0.0
        counts = self.visible_counts(site_index, subset)
        return float(np.count_nonzero(counts >= int(k)) / self.n_times)
