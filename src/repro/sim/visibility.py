"""Vectorized satellite-ground visibility.

The coverage experiments need, for S ground sites, N satellites and T time
samples, the boolean visibility tensor ``visible[s, n, t]``.  Computing it
through the full topocentric transform would be exact but slow; instead we
use the classical spherical-geometry equivalence (see
:mod:`repro.orbits.topocentric`):

    elevation(site, sat) >= mask
        <=>  central_angle(site_dir, sat_dir) <= psi(r_sat, R_site, mask)
        <=>  dot(unit_site, unit_sat) >= cos(psi)

where ``unit_site``/``unit_sat`` are geocentric unit vectors in a common
frame.  Both sides are rotated into ECI (sites rotate with Earth, satellites
come out of the propagator in ECI), so no per-satellite frame conversion is
needed.  Time is processed in chunks to bound peak memory.

The threshold ``psi`` is computed from each satellite's semi-major axis; for
the near-circular orbits of LEO constellations (e < 0.02) the instantaneous
radius differs from ``a`` by under ~1%, shifting footprint edges by a couple
of km — far below the time-step quantization of contact edges.

The heavy lifting lives in :mod:`repro.sim.kernels`: chunk-streaming
reduction kernels that never materialize the (S, N, T) tensor, plus the
geometric pair cull that skips propagation for (site, satellite) pairs
that can never see each other.  :class:`VisibilityEngine` keeps the
figure-facing API.  Every path, :meth:`VisibilityEngine.visibility`
included, goes through the kernels' float32 screen;
:func:`repro.sim.kernels.exact_visibility` is the unscreened float64
reference they are all tested bit-for-bit against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.constellation.satellite import Constellation
from repro.obs import get_logger
from repro.obs.trace import span
from repro.orbits.elements import OrbitalElements
from repro.orbits.propagator import BatchPropagator
from repro.ground.sites import GroundSite
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.intervals import IntervalSet
from repro.sim.kernels import (  # re-exported: the historical home of these
    SiteGeometry,
    coverage_cos_thresholds,
    record_visibility_metrics as _record_visibility_metrics,
)

__all__ = [
    "ConstellationLike",
    "PackedVisibility",
    "SiteGeometry",
    "VisibilityEngine",
    "coverage_cos_thresholds",
    "or_popcount",
    "packed_visibility",
    "satellite_major",
]

_LOG = get_logger(__name__)

ConstellationLike = Union[Constellation, Sequence[OrbitalElements], BatchPropagator]


def _as_propagator(constellation: ConstellationLike) -> BatchPropagator:
    if isinstance(constellation, BatchPropagator):
        return constellation
    if isinstance(constellation, Constellation):
        return BatchPropagator.from_columns(constellation.columns)
    return BatchPropagator(list(constellation))


class VisibilityEngine:
    """Computes visibility tensors over a time grid.

    The engine is stateless with respect to constellations: instantiate once
    per time grid and reuse it for many constellation samples (the
    Monte-Carlo experiments do exactly that).

    The reduction methods (:meth:`site_coverage`, :meth:`satellite_activity`,
    :meth:`visible_counts`) stream: they hold one (S, N, chunk) slab at a
    time and never allocate the full tensor.  :meth:`visibility` still
    materializes (S, N, T) for the callers that genuinely need the tensor.

    Example:
        >>> from repro.sim import TimeGrid, VisibilityEngine
        >>> engine = VisibilityEngine(TimeGrid.hours(3.0))
        >>> # visible = engine.visibility(constellation, [site])
    """

    def __init__(self, grid: TimeGrid, chunk_size: Optional[int] = None) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.grid = grid
        #: Time samples per slab on every path.  ``None`` defers to the
        #: adaptive default (:func:`repro.sim.kernels.default_chunk_size`),
        #: which sizes the slab per population at plan time.
        self.chunk_size = chunk_size

    def _plan(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry],
        chunk_size: Optional[int],
        cull: bool,
        pack: bool = False,
    ) -> kernels.StreamPlan:
        if geometry is None:
            if not sites:
                raise ValueError("at least one ground site is required")
            geometry = SiteGeometry(sites, self.grid)
        return kernels.plan_stream(
            _as_propagator(constellation),
            geometry,
            self.grid,
            chunk_size=chunk_size,
            cull=cull,
            pack=pack,
        )

    def visibility(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Full visibility tensor, assembled from the streamed slabs.

        Args:
            constellation: A :class:`Constellation`, element list, or
                prebuilt :class:`BatchPropagator`.
            sites: Ground sites (terminals or stations).
            geometry: Precomputed :class:`SiteGeometry` (overrides
                ``sites``; experiment contexts cache these).
            cull: Apply the conservative geometric pair cull (bit-neutral;
                disable to propagate every satellite).

        Returns:
            Boolean array of shape (S, N, T).
        """
        plan = self._plan(constellation, sites, geometry, self.chunk_size, cull)
        visible = np.empty(
            (plan.n_sites, plan.n_satellites, self.grid.count), dtype=bool
        )
        visible_samples = 0
        with span("visibility.tensor"):
            for offset, slab in kernels.iter_slabs(plan):
                visible[:, :, offset : offset + slab.shape[2]] = slab
                visible_samples += int(np.count_nonzero(slab))
        _record_visibility_metrics(
            plan.n_sites, plan.n_satellites, self.grid.count, visible_samples
        )
        return visible

    def site_coverage(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Per-site coverage mask: (S, T) — true when any satellite is visible."""
        return kernels.stream_site_coverage(
            self._plan(constellation, sites, geometry, self.chunk_size, cull)
        )

    def satellite_activity(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Per-satellite activity mask: (N, T) — true when any site is visible.

        This is the paper's Fig. 3 notion of a satellite being "connected to a
        user terminal"; idle time is the complement.
        """
        return kernels.stream_satellite_activity(
            self._plan(constellation, sites, geometry, self.chunk_size, cull)
        )

    def visible_counts(
        self,
        constellation: ConstellationLike,
        sites: Sequence[GroundSite],
        geometry: Optional[SiteGeometry] = None,
        cull: bool = True,
    ) -> np.ndarray:
        """Number of visible satellites per site per time: (S, T) ints.

        Streamed; the counts accumulate into uint16 (uint32 past 65535
        satellites), which is exact — the count axis is bounded by N.
        """
        return kernels.stream_visible_counts(
            self._plan(constellation, sites, geometry, self.chunk_size, cull)
        )


def or_popcount(rows: np.ndarray, axis: int) -> np.ndarray:
    """OR-reduce packed uint8 rows over ``axis``, then popcount per row.

    ``rows`` is ``(A, K, B)`` uint8; the reduction axis (0 or 1) is
    collapsed and the surviving ``(rows, B)`` bytes are popcounted and
    summed to int64 bit counts, so covered samples are counted without
    unpacking.  Pure integer arithmetic, so exact in any evaluation order.
    Callers guarantee a non-empty reduction axis.
    """
    return _row_popcount(np.bitwise_or.reduce(rows, axis=axis))


def _row_popcount(packed: np.ndarray) -> np.ndarray:
    """Set bits per row of a (..., B) uint8 array, as int64 counts over
    the last axis."""
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


#: Bytes of satellite rows one batched subset query gathers at a time.
#: A block holds as many runs as fit, so a batch of small subsets costs
#: one gather per block; a run larger than the budget is gathered and
#: OR-ed in slices of as many satellites as fit (at least one).  Sized so
#: a block stays cache-resident while it is OR-ed: on a 2-CPU x86-64 host
#: 128-512 KiB blocks were fastest, 1 MiB up to 10 % and 4 MiB up to
#: 2x slower on small subsets.
BATCH_GATHER_BYTES = 256 * 2**10


def satellite_major(packed: np.ndarray) -> np.ndarray:
    """The C-contiguous (N, S, B) rows behind a (S, N, B) packed array.

    A view when ``packed`` is the transpose of such a buffer, as
    :func:`repro.sim.kernels.stream_packed_bits` returns; otherwise (a
    hand-built site-major array) one copy.
    """
    rows = packed.transpose(1, 0, 2)
    if rows.flags.c_contiguous:
        return rows
    return np.ascontiguousarray(rows)


class PackedVisibility:
    """A bit-packed visibility tensor for Monte-Carlo subset experiments.

    The paper's experiments repeatedly ask: "for a random subset of this
    satellite pool, what is the coverage at these sites?"  Propagating the
    pool once and answering each run with boolean reductions is orders of
    magnitude cheaper than re-propagating.  Packing 8 time samples per byte
    keeps a full Starlink-scale pool x 22 sites x one week at 120 s steps
    at ~58 MiB.

    The bytes are stored satellite-major: ``by_satellite`` is one
    C-contiguous (N, S, ceil(T/8)) buffer, so every query, which selects
    satellites, gathers one contiguous S·B-byte run per selected satellite.
    ``packed`` is its (S, N, ceil(T/8)) transpose, a view.  Indices out of
    range, negative ones included, raise IndexError.

    The time axis is padded to a byte boundary with zero (= not visible)
    bits, which is neutral for every OR/popcount reduction as long as counts
    use the true sample count ``n_times``.

    Build instances with :func:`packed_visibility`.
    """

    def __init__(self, packed: np.ndarray, n_times: int, grid: TimeGrid) -> None:
        if packed.ndim != 3 or packed.dtype != np.uint8:
            raise ValueError("packed must be a (S, N, ceil(T/8)) uint8 array")
        if packed.shape[2] * 8 < n_times:
            raise ValueError("packed array too short for n_times")
        self.by_satellite = satellite_major(packed)
        self.packed = self.by_satellite.transpose(1, 0, 2)
        self.n_times = n_times
        self.grid = grid

    @property
    def n_sites(self) -> int:
        return self.by_satellite.shape[1]

    @property
    def n_satellites(self) -> int:
        return self.by_satellite.shape[0]

    def _sat_rows(self, sat_indices) -> np.ndarray:
        """(n, S, B) rows of a satellite subset; every satellite for None."""
        if sat_indices is None:
            return self.by_satellite
        return self.by_satellite[
            kernels.checked_indices(sat_indices, self.n_satellites, "satellite")
        ]

    def _activity_rows(self, sat_indices, site_indices) -> np.ndarray:
        """(n, k, B) rows of a satellite subset at the selected sites.

        Gathers the satellites first: their rows are contiguous, and the
        site selection then copies only n·k·B bytes.
        """
        rows = self._sat_rows(sat_indices)
        if site_indices is not None:
            sites = kernels.checked_indices(site_indices, self.n_sites, "site")
            rows = rows[:, sites, :]
        return rows

    def site_mask(self, site_index: int, sat_indices=None) -> np.ndarray:
        """Boolean coverage mask (T,) of one site under a satellite subset."""
        site = kernels.checked_index(site_index, self.n_sites, "site")
        sats = slice(None)
        if sat_indices is not None:
            sats = kernels.checked_indices(sat_indices, self.n_satellites, "satellite")
        rows = self.by_satellite[sats, site]
        if rows.shape[0] == 0:
            return np.zeros(self.n_times, dtype=bool)
        packed_or = np.bitwise_or.reduce(rows, axis=0)
        return np.unpackbits(packed_or)[: self.n_times].astype(bool)

    def site_union(self, site_index: int, sat_indices=None) -> IntervalSet:
        """Coverage of one site by a satellite subset, as an interval set.

        Each covered sample covers its step, over the sampled horizon
        ``[start_s, start_s + step_s * n_times)`` the intervals engine
        also uses; :meth:`ContactIntervals.site_union
        <repro.sim.intervals.ContactIntervals.site_union>` is the
        intervals engine's form.
        """
        begins, ends = _sample_runs(self.site_mask(site_index, sat_indices))
        # Runs of a mask are sorted, non-empty and never touch.
        return IntervalSet._normalized(
            self._sample_times(begins), self._sample_times(ends),
            self.grid.start_s, self._sample_times(self.n_times),
        )

    def pair_windows(
        self, site_index: int, sat_index: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sampled (rise, set, truncated_start, truncated_end) windows of
        one pair, in time order.

        A run of visible samples ``[a, b)`` is the window ``[t_a, t_b)``;
        a run open at the first or the last sample is flagged truncated.
        The intervals engine's :meth:`ContactIntervals.pair_windows
        <repro.sim.intervals.ContactIntervals.pair_windows>` has the same
        form.
        """
        mask = self.satellite_masks([sat_index], [site_index])[0]
        begins, ends = _sample_runs(mask)
        return (
            self._sample_times(begins),
            self._sample_times(ends),
            begins == 0,
            ends == self.n_times,
        )

    def _sample_times(self, samples):
        """Simulation times of sample indices (the time after the last
        sample for index ``n_times``)."""
        return self.grid.start_s + self.grid.step_s * samples

    def site_masks(self, sat_indices=None) -> np.ndarray:
        """Boolean coverage masks (S, T) for all sites under a subset."""
        rows = self._sat_rows(sat_indices)
        if rows.shape[0] == 0:
            return np.zeros((self.n_sites, self.n_times), dtype=bool)
        packed_or = np.bitwise_or.reduce(rows, axis=0)  # (S, bytes)
        return np.unpackbits(packed_or, axis=1)[:, : self.n_times].astype(bool)

    def coverage_fractions(self, sat_indices=None) -> np.ndarray:
        """Covered fraction per site (S,) without unpacking full masks.

        A ``(runs, k)`` index matrix is a batch of subsets: the result is
        ``(runs, S)``, row *i* equal bit for bit to the call on row *i*.
        """
        if sat_indices is None:
            if self.n_satellites == 0:
                return np.zeros(self.n_sites)
            return or_popcount(self.by_satellite, axis=0) / float(self.n_times)
        runs = kernels.checked_index_rows(
            sat_indices, self.n_satellites, "satellite"
        )
        counts, _ = self._subset_counts(runs, 0)
        fractions = counts / float(self.n_times)
        return fractions if np.ndim(sat_indices) == 2 else fractions[0]

    def withdrawal_coverage(
        self, order, withdrawn: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Coverage fractions (S,) of ``order`` and of ``order[withdrawn:]``.

        Equal bit for bit to ``(coverage_fractions(order),
        coverage_fractions(order[withdrawn:]))`` from one gather of
        ``order``'s rows: the withdrawn head and the kept tail are OR-ed
        separately and the base is their OR (OR is exact in any grouping;
        an empty part ORs to zero bits).  A ``(runs, k)`` matrix of orders
        gives two ``(runs, S)`` arrays, the first ``withdrawn`` of every
        row withdrawing.
        """
        runs = kernels.checked_index_rows(order, self.n_satellites, "satellite")
        split = kernels.checked_withdrawn(withdrawn, runs.shape[1])
        base, kept = self._subset_counts(runs, split)
        n_times = float(self.n_times)
        if np.ndim(order) == 2:
            return base / n_times, kept / n_times
        return base[0] / n_times, kept[0] / n_times

    def _subset_counts(
        self, runs: np.ndarray, split: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Covered-sample counts (runs, S) of each checked row and of the
        row's tail ``[split:]``; one array twice when ``split`` is 0.

        Runs are gathered in blocks of :data:`BATCH_GATHER_BYTES`; each
        block is OR-ed over its subset axis and popcounted per row.  A run
        over the budget is a block of its own, gathered in slices of
        satellites that fit; the head and the tail are sliced separately,
        so the split stays exact.
        """
        n_runs, k = runs.shape
        kept = np.empty((n_runs, self.n_sites), dtype=np.int64)
        base = np.empty_like(kept) if split else kept
        sat_bytes = max(self.n_sites * self.by_satellite.shape[2], 1)
        block = max(1, BATCH_GATHER_BYTES // (k * sat_bytes or 1))
        width = max(1, k if block > 1 else BATCH_GATHER_BYTES // sat_bytes)
        for start in range(0, n_runs, block):
            group = runs[start : start + block]
            ored = self._or_gathered(group[:, split:], width)
            kept[start : start + block] = _row_popcount(ored)
            if split:
                ored |= self._or_gathered(group[:, :split], width)
                base[start : start + block] = _row_popcount(ored)
        return base, kept

    def _or_gathered(self, group: np.ndarray, width: int) -> np.ndarray:
        """(g, S, B) OR of the rows of each row of a (g, m) index matrix,
        gathering ``width`` satellites per row at a time (zeros if m = 0)."""
        ored = np.bitwise_or.reduce(self.by_satellite[group[:, :width]], axis=1)
        for begin in range(width, group.shape[1], width):
            ored |= np.bitwise_or.reduce(
                self.by_satellite[group[:, begin : begin + width]], axis=1
            )
        return ored

    def satellite_active_fractions(
        self, sat_indices=None, site_indices=None
    ) -> np.ndarray:
        """Active fraction per satellite (any selected site visible).

        ``site_indices`` restricts which sites count as demand (the Fig. 3
        sweep serves the top-k cities only); default is all sites.  An empty
        site selection means no demand anywhere: every satellite's active
        fraction is zero.
        """
        rows = self._activity_rows(sat_indices, site_indices)
        if rows.shape[0] == 0 or rows.shape[1] == 0:
            return np.zeros(rows.shape[0])
        counts = or_popcount(rows, axis=1)
        return counts / float(self.n_times)

    def satellite_masks(self, sat_indices=None, site_indices=None) -> np.ndarray:
        """Boolean activity masks (N_subset, T): any selected site sees the
        satellite.  An empty site selection yields all-False masks."""
        rows = self._activity_rows(sat_indices, site_indices)
        if rows.shape[0] == 0 or rows.shape[1] == 0:
            return np.zeros((rows.shape[0], self.n_times), dtype=bool)
        packed_or = np.bitwise_or.reduce(rows, axis=1)
        return np.unpackbits(packed_or, axis=1)[:, : self.n_times].astype(bool)


def _sample_runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and one-past-last sample index of every True run of a 1-D
    boolean mask."""
    padded = np.zeros(mask.size + 2, dtype=np.int8)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2]


def packed_visibility(
    constellation: ConstellationLike,
    sites: Sequence[GroundSite],
    grid: TimeGrid,
    chunk_size: Optional[int] = None,
    geometry: Optional[SiteGeometry] = None,
    cull: bool = True,
) -> PackedVisibility:
    """Compute a :class:`PackedVisibility` for a pool of satellites.

    Streams: one (S, N, chunk) slab is packed at a time, so peak memory is
    the packed result plus O(S·N·chunk) transients — the full boolean
    tensor is never held.  The chunk size defaults to the adaptive
    :func:`repro.sim.kernels.default_chunk_size` (64 samples for the full
    pool at the 22 experiment sites) and is rounded down to a multiple of
    8 so chunks pack cleanly; the final partial chunk is zero-padded
    (padding bits read "not visible").

    The bits land satellite-major (see :class:`PackedVisibility`) without
    a copy.  ``geometry`` reuses a cached :class:`SiteGeometry`.
    """
    if geometry is None:
        geometry = SiteGeometry(sites, grid)
    plan = kernels.plan_stream(
        _as_propagator(constellation),
        geometry,
        grid,
        chunk_size=chunk_size,
        cull=cull,
        pack=True,
    )
    packed = kernels.stream_packed_bits(plan)
    return PackedVisibility(packed, grid.count, grid)
