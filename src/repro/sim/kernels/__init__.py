"""Fused, chunk-streaming visibility kernels with geometric pair culling.

The figure experiments never need the full ``(S, N, T)`` visibility tensor:
every reduction the paper uses — site coverage (``any`` over satellites),
satellite activity (``any`` over sites), visible counts, and the bit-packed
Monte-Carlo pool — is a single pass over the time axis.  The kernels here
hold exactly one ``(S, N, chunk)`` slab at a time, so peak memory scales
with the chunk size, not the horizon: O(S·N·chunk) instead of O(S·N·T).
For the full synthetic Starlink pool at the 22 experiment sites over one
week, that is tens of MB of transients instead of a ~0.5 GB boolean tensor
plus GB-scale float64 intermediates.

Bit-identity contract
---------------------
Every streamed bit must equal the exact reference
(:func:`exact_visibility`): the float64 unit directions of
:meth:`~repro.orbits.propagator.BatchPropagator.unit_positions_eci`, the
site track, and :func:`exact_dots` compared against the cos thresholds.
The golden figures compare at rtol 1e-6 and one flipped visibility bit
moves a coverage fraction by 1/T.  The kernels reach that reference in two
steps (pinned by tests/sim/test_kernels.py and the ``oracle.fused``
validation check):

* a float32 *screen* forms every dot product with a batched matmul of
  float32 unit vectors, one cache-sized block of time samples at a time
  (:data:`SCREEN_BLOCK_BYTES`).  The satellite vectors come from a
  :class:`~repro.orbits.propagator.ScreenStepper`: on circular pools,
  per-satellite phasors stepped across the block by complex64 multiplies.
  Its error against the float64 dot stays within :data:`SCREEN_MARGIN`
  (derivation there), so a sample whose screen dot is below
  ``thr - SCREEN_MARGIN`` is surely not visible and one at or above
  ``thr + SCREEN_MARGIN`` surely is;
* the rare samples in between (~0.01 % of pair-samples for the full pool)
  are decided exactly: :func:`exact_dots` of float64 directions.  Circular
  pools re-evaluate those directions with the propagator's
  ``_unit_positions_at`` (bit equal to the grid evaluation); eccentric
  pools read them from the chunk's own float64 Kepler solve.

No decision depends on the operand shapes: the screen only settles samples
its error cannot flip, and :func:`exact_dots` is elementwise.  Chunking the
time axis, blocking the screen, splitting chunks across threads and
culling satellites out of the screen are therefore bit-neutral.  Which
samples reach the exact pass can move by a few, though: a sample within
float32 rounding of a band edge may land on either side of it depending
on where its stepper restarted (``sim.kernels.exact_rechecks`` for the
full pool over a week moves by up to ~5 of ~49 k between worker counts).
Satellite culling still only skips propagation on the all-circular fast
path: the general Kepler path iterates to a batch-global tolerance, so a
subset could converge in a different iteration count.

Threads
-------
Chunks are independent: each restarts its stepper's phasors at its first
sample and packs into its own bytes.  :func:`stream_packed_bits`, which
builds every figure's packed store, therefore splits each chunk across one
worker thread per available CPU; numpy releases the GIL in the matmul, the
compares, ``flatnonzero`` and the packing ``einsum``.  Its transients stay
at the serial total: each worker screens ``1/workers`` of a chunk at a
time with ``1/workers`` of the screen block.  Workers only screen
(:func:`_screen_chunk`), pack and write the store: no counter increment
(an unlocked ``+=``) and none of the public entry points that benchmark
tracers wrap with one span stack for all threads.  They return their
tallies, and the calling thread counts them.  :func:`run_workers` runs
them, worker 0 on the calling thread, and after the join hands the pages
the pool threads freed back to the OS; the contact-interval refine
(:mod:`repro.sim.intervals`) shares it.  The other kernels stream on the
calling thread.

Subset-query batch kernels over the packed tensor live in
:mod:`repro.sim.kernels.subsets`.

Geometric pair culling
----------------------
A satellite with inclination *i* never exceeds geocentric latitude
``lambda_max = asin(|sin i|)`` (J2 secular drift changes RAAN, perigee and
phase — never the inclination), and a ground site sits at fixed geocentric
latitude ``phi``.  The central angle between their geocentric unit vectors
is therefore at least ``max(|phi| - lambda_max, 0)``, which upper-bounds
the achievable dot product by the cosine of that gap.  Pairs whose bound
falls short of the visibility threshold (minus a float-safety margin) can
*never* see each other — a 53 deg shell never covers a 75 deg-latitude
site — so their satellites need no propagation at all when no site can
reach them.  The bound is conservative: culling changes which work is
*skipped*, never the results.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.obs import get_logger, metrics
from repro.obs.trace import span
from repro.orbits.frames import gmst_rad
from repro.orbits.propagator import BatchPropagator, ScreenStepper
from repro.ground.sites import GroundSite
from repro.sim.clock import TimeGrid

_LOG = get_logger(__name__)

#: Smallest default streaming chunk (time samples per slab), and the one
#: the full pool gets.  At 22 sites × 4408 satellites a 64-sample slab is
#: ~6 MiB of booleans; the float32 screen dots are held one block of
#: :data:`SCREEN_BLOCK_BYTES` at a time.  Multiple of 8 so packed chunks
#: land on byte boundaries.
DEFAULT_STREAM_CHUNK = 64

#: Largest default streaming chunk.  Small constellations hit per-chunk
#: Python/dispatch overhead long before memory matters, so the adaptive
#: default below widens the chunk until the slab reaches
#: :data:`TARGET_SLAB_BYTES` or this cap.
MAX_STREAM_CHUNK = 2048

#: Boolean-slab byte budget the adaptive default chunk aims for, so the
#: default's transient peak stays in the tens of megabytes for any
#: population.
TARGET_SLAB_BYTES = 4 * 2**20


def default_chunk_size(n_sites: int, n_satellites: int) -> int:
    """Adaptive chunk for callers that don't pick one.

    Sized so the (S, N, chunk) boolean slab is ~:data:`TARGET_SLAB_BYTES`,
    clamped to [:data:`DEFAULT_STREAM_CHUNK`, :data:`MAX_STREAM_CHUNK`] and
    kept a multiple of 8.  Chunking is bit-neutral (the fused oracle pins
    it), so the default is purely a time/memory trade: full-pool runs get
    small memory-bounded slabs, tiny design-sweep constellations get wide
    slabs that amortize per-chunk overhead.
    """
    pairs = n_sites * n_satellites
    if pairs <= 0:
        return MAX_STREAM_CHUNK
    chunk = TARGET_SLAB_BYTES // pairs // 8 * 8
    return int(min(MAX_STREAM_CHUNK, max(DEFAULT_STREAM_CHUNK, chunk)))

#: Float-safety margin subtracted from the threshold before declaring a
#: pair infeasible.  The geometric bound is exact in real arithmetic; the
#: margin absorbs the ~1e-15 rounding of the cos/arcsin chain with six
#: orders of magnitude to spare.
CULL_COS_MARGIN = 1e-9

#: Half-width of the band around each threshold inside which the float32
#: screen defers to an exact float64 decision.  Error budget of a screen
#: dot, for unit vectors (every |component| <= 1), with the satellite
#: directions from :class:`~repro.orbits.propagator.ScreenStepper`:
#:
#: * base: per chunk, ``u`` and ``raan`` are formed and reduced to
#:   [-pi, pi] in float64 (error ~1e-13 rad for a week's ~700 rad) and the
#:   base phasors take float64 trig; each block advances them by one
#:   complex128 multiply, ~1e-16 per advance, so < 1e-13 after a 2048-
#:   sample chunk's advances;
#: * float64 phasors cast once to complex64: the base per block and the
#:   step tables per stepper, <= 2^-24 ~ 6e-8 relative per component;
#: * float32 multiply-adds: the complex64 product's two products and sum
#:   and the sum of two phasors per component, <= 2^-24 relative each,
#:   so with the casts a component is off by <= ~4e-7;
#: * the site track's float32 cast adds <= 6e-8 per component, and the
#:   matmul's three products and two sums ~2e-7;
#: * casting ``thr -/+ margin`` to float32 moves the band edge <= 6e-8.
#:
#: Together <= ~1.6e-6 (3·4e-7 plus the smaller terms), 60x under this
#: margin.  Measured over a week of the full pool at 120 s and at 300 s
#: steps: a component is off by <= 1.6e-7 and a dot by <= 2.3e-7, also
#: for 2048-sample chunks stepped 8 samples at a time.
SCREEN_MARGIN = 1e-4

#: Bytes of float32 screen dots one time block holds (:func:`iter_slabs`,
#: :func:`screen_block_size`): 8 samples, 3.1 MB, for the full pool at
#: 22 sites, so a block's dots are still cache-warm when compared and
#: scanned.  Measured on a 2-CPU x86-64 host (2 MiB L2 per core), best of
#: 3 full-pool week builds at 120 s: 3 MiB blocks 1.07 s, 1 MiB 1.24 s,
#: 12 MiB 1.18 s.  The block scales with S·N, so small pools keep few
#: per-block Python calls: a fixed 8-sample block made the design
#: sweeps' 2048-sample chunks so slow that whole ``fig4b``/``fig4c``
#: commands took 15-30 % longer.
SCREEN_BLOCK_BYTES = 3 * 2**20

_PAIRS_CULLED = metrics.counter("sim.visibility.culled_pairs")
_SATS_CULLED = metrics.counter("sim.visibility.culled_satellites")

# Kernel introspection: stream traffic and cull efficiency.
# Counters only ever read slab metadata (shape/nbytes) and plan scalars —
# never array contents — so they cannot perturb the bit-identity contract.
_SLABS_STREAMED = metrics.counter("sim.kernels.slabs_streamed")
_SLAB_BYTES = metrics.counter("sim.kernels.slab_bytes")
_PAIRS_EVALUATED = metrics.counter("sim.kernels.pairs_evaluated")
_THRESH_HITS = metrics.counter("sim.kernels.threshold_cache.hits")
_THRESH_MISSES = metrics.counter("sim.kernels.threshold_cache.misses")
_THRESH_EVICTIONS = metrics.counter("sim.kernels.threshold_cache.evictions")
#: Pair-samples the float32 screen left to an exact float64 decision.
_EXACT_RECHECKS = metrics.counter("sim.kernels.exact_rechecks")
#: The propagator's own counter: steppers and exact rechecks count their
#: state evaluations through :func:`_count_screen`, on the calling thread.
_STATE_EVALS = metrics.counter("orbits.propagator.state_evaluations")

# Shared with repro.sim.visibility (get-or-create by name returns the same
# instruments; visibility.py cannot be imported here — it imports us).
_PAIRS = metrics.counter("sim.visibility.pairs")
_SAMPLES_TOTAL = metrics.counter("sim.visibility.pair_samples")
_SAMPLES_VISIBLE = metrics.counter("sim.visibility.pair_samples_visible")


def record_visibility_metrics(
    n_sites: int, n_sats: int, n_times: int, visible_samples: int
) -> None:
    """Account one visibility computation: pair and pair-sample counts."""
    pairs = n_sites * n_sats
    samples = pairs * n_times
    _PAIRS.inc(pairs)
    _SAMPLES_TOTAL.inc(samples)
    _SAMPLES_VISIBLE.inc(visible_samples)
    _LOG.debug(
        "visibility: %d sites x %d sats x %d steps, mask pass rate %.4f",
        n_sites, n_sats, n_times, visible_samples / samples if samples else 0.0,
    )


def coverage_cos_thresholds(
    orbital_radii_m: np.ndarray,
    site_radii_m: np.ndarray,
    min_elevation_deg: np.ndarray,
) -> np.ndarray:
    """Vectorized cos(psi) thresholds for (site, satellite) pairs.

    Args:
        orbital_radii_m: (N,) satellite orbital radii.
        site_radii_m: (S,) geocentric site radii.
        min_elevation_deg: (S,) per-site elevation masks.

    Returns:
        (S, N) array of cosine thresholds: a satellite is visible from a site
        when the dot product of their geocentric unit vectors meets or
        exceeds the threshold.
    """
    radii = np.asarray(orbital_radii_m, dtype=np.float64)[None, :]
    site_radii = np.asarray(site_radii_m, dtype=np.float64)[:, None]
    masks = np.radians(np.asarray(min_elevation_deg, dtype=np.float64))[:, None]
    if np.any(radii <= site_radii):
        raise ValueError("orbital radius must exceed the site radius")
    psi = np.arccos(np.clip(site_radii / radii * np.cos(masks), -1.0, 1.0)) - masks
    return np.cos(psi)


def exact_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last (size-3) axis: ``(a0·b0 + a1·b1) + a2·b2``.

    Elementwise ufuncs in a fixed order, so each element's bits depend on
    its own operands only — not on the array shapes or broadcasting, as a
    BLAS or einsum reduction's would.  This defines the visibility
    decision the screen must reproduce.
    """
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def exact_visibility(propagator: BatchPropagator, geometry: "SiteGeometry") -> np.ndarray:
    """The unscreened (S, N, T) reference tensor over ``geometry.grid``.

    Float64 directions of every satellite at every time, no cull, no
    screen: what every streaming kernel must reproduce bit for bit.
    Materializes float64 (S, N, T) temporaries, so it is for tests and
    validation-sized inputs only.
    """
    times = geometry.grid.times_s
    sats = propagator.unit_positions_eci(times)  # (N, T, 3)
    sites = geometry.units_eci(times)  # (S, T, 3)
    dots = exact_dots(sats[None], sites[:, None])
    return dots >= geometry.thresholds(propagator)[:, :, None]


def site_radii_m(sites: Sequence[GroundSite]) -> np.ndarray:
    """Batched geocentric site radii (S,).

    The einsum self-dot + sqrt reproduces ``np.linalg.norm`` on each row
    bit-for-bit (same three products, same summation order) without the
    per-site Python loop; ``np.linalg.norm(positions, axis=1)`` does *not*
    (it squares via a different reduction), which matters because the
    radii feed the visibility thresholds the goldens pin.
    """
    if not sites:
        return np.zeros(0, dtype=np.float64)
    positions = np.stack([site.position_ecef for site in sites])
    return np.sqrt(np.einsum("sk,sk->s", positions, positions, optimize=True))


class SiteGeometry:
    """Precomputed site-side geometry for one (sites, grid) pair.

    Everything the visibility kernels need from the ground segment —
    stacked ECEF unit vectors, geocentric radii, elevation masks, the
    per-grid ECI unit tracks, and the per-propagator cos thresholds — is
    fixed per experiment while the constellation sample varies, so
    :class:`~repro.experiments.common.ExperimentContext` caches instances
    across Monte-Carlo runs.

    The ECI track is built lazily (:meth:`prime_track`) because one-shot
    callers are better served computing chunk slices on the fly; cached
    contexts prime it once and every later build slices it for free.
    """

    def __init__(self, sites: Sequence[GroundSite], grid: TimeGrid) -> None:
        self.sites: Tuple[GroundSite, ...] = tuple(sites)
        self.grid = grid
        self.radii_m = site_radii_m(self.sites)
        if self.sites:
            self.unit_ecef = np.stack([site.unit_ecef for site in self.sites])
            self.min_elevation_deg = np.array(
                [site.min_elevation_deg for site in self.sites]
            )
        else:
            self.unit_ecef = np.zeros((0, 3))
            self.min_elevation_deg = np.zeros(0)
        #: Geocentric site latitudes (S,), for the pair-culling bound.
        self.latitude_rad = np.arcsin(np.clip(self.unit_ecef[:, 2], -1.0, 1.0))
        self._track: Optional[np.ndarray] = None
        self._track32: Optional[np.ndarray] = None
        # Thresholds depend on the propagator's radii; weak keying lets a
        # cached geometry serve many pool rebuilds without pinning
        # propagators alive.
        self._thresholds: "weakref.WeakKeyDictionary[BatchPropagator, np.ndarray]"
        self._thresholds = weakref.WeakKeyDictionary()

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def thresholds(self, propagator: BatchPropagator) -> np.ndarray:
        """Cached (S, N) cos thresholds for this propagator's radii."""
        cached = self._thresholds.get(propagator)
        if cached is None:
            _THRESH_MISSES.inc()
            cached = coverage_cos_thresholds(
                propagator.semi_major_axis_m, self.radii_m, self.min_elevation_deg
            )
            self._thresholds[propagator] = cached
            # The weak-keyed entry dies with the propagator; account it.
            weakref.finalize(propagator, _THRESH_EVICTIONS.inc)
        else:
            _THRESH_HITS.inc()
        return cached

    def units_eci(self, times_s: np.ndarray) -> np.ndarray:
        """Site geocentric unit directions in ECI at each time: (S, T, 3)."""
        theta = gmst_rad(times_s, self.grid.gmst_at_epoch_rad)  # (T,)
        cos_t = np.cos(theta)
        sin_t = np.sin(theta)
        x = self.unit_ecef[:, 0][:, None]
        y = self.unit_ecef[:, 1][:, None]
        out = np.empty((self.n_sites, times_s.size, 3))
        # ECEF -> ECI is a rotation by +theta about z.
        out[..., 0] = cos_t * x - sin_t * y
        out[..., 1] = sin_t * x + cos_t * y
        out[..., 2] = self.unit_ecef[:, 2][:, None]
        return out

    def prime_track(self) -> np.ndarray:
        """Build (and cache) the full (S, T, 3) ECI unit track for the grid.

        Also caches its float32 time-major copy (T, S, 3), the screen's
        matmul operand (:meth:`screen_chunk`).
        """
        if self._track is None:
            self._track = self.units_eci(self.grid.times_s)
            self._track.flags.writeable = False
            self._track32 = _time_major_f32(self._track)
        return self._track

    def units_chunk(self, offset: int, times_s: np.ndarray) -> np.ndarray:
        """Float64 unit track for one chunk: (S, Tc, 3).

        Slicing the primed track yields the same per-element values as
        computing the chunk directly (the trig is elementwise).
        """
        if self._track is None:
            return self.units_eci(times_s)
        return self._track[:, offset : offset + times_s.size, :]

    def screen_chunk(
        self, offset: int, times_s: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Site operands for one chunk: float64 (S, Tc, 3) for the exact
        decisions and its float32 time-major copy (Tc, S, 3) for the screen."""
        units = self.units_chunk(offset, times_s)
        if self._track32 is None:
            return units, _time_major_f32(units)
        return units, self._track32[offset : offset + times_s.size]


def _time_major_f32(track: np.ndarray) -> np.ndarray:
    """(S, T, 3) float64 -> contiguous (T, S, 3) float32."""
    return np.ascontiguousarray(track.transpose(1, 0, 2), dtype=np.float32)


def pair_cull_mask(
    propagator: BatchPropagator,
    geometry: SiteGeometry,
    thresholds: Optional[np.ndarray] = None,
    margin: float = CULL_COS_MARGIN,
) -> np.ndarray:
    """(S, N) feasibility: False where a pair can never see each other.

    Upper-bounds each pair's achievable dot product by
    ``cos(max(|site_latitude| - asin(|sin i|), 0))`` (latitudes can align
    in longitude at best) and compares against the visibility threshold
    minus ``margin``.  Conservative by construction: a False entry is a
    mathematical guarantee of zero visibility over any horizon.
    """
    if thresholds is None:
        thresholds = geometry.thresholds(propagator)
    sat_lat_max = np.arcsin(np.clip(np.abs(np.sin(propagator.inclination_rad)), 0.0, 1.0))
    gap = np.maximum(
        np.abs(geometry.latitude_rad)[:, None] - sat_lat_max[None, :], 0.0
    )  # (S, N) minimum central angle
    return np.cos(gap) >= thresholds - margin


class StreamPlan:
    """One resolved streaming computation: operands, chunking, culling.

    Built by :func:`plan_stream`; consumed by :func:`iter_slabs` and the
    ``stream_*`` kernels.  ``active_indices`` is None when every satellite
    propagates (culling off, not applicable, or nothing to cull).
    ``screen_lo``/``screen_hi`` are the float32 (S, N) screen band edges,
    ``thresholds -/+ SCREEN_MARGIN``; infeasible pairs get ``screen_lo =
    inf``, so they never pass the screen.
    """

    __slots__ = (
        "propagator", "geometry", "grid", "chunk_size", "thresholds",
        "screen_lo", "screen_hi", "feasible", "active_indices",
        "active_propagator", "culled_pairs", "culled_satellites",
        "cull_applied",
    )

    def __init__(self, propagator, geometry, grid, chunk_size, thresholds,
                 feasible, active_indices, active_propagator, culled_pairs,
                 culled_satellites, cull_applied) -> None:
        self.propagator = propagator
        self.geometry = geometry
        self.grid = grid
        self.chunk_size = chunk_size
        self.thresholds = thresholds
        self.screen_lo = (thresholds - SCREEN_MARGIN).astype(np.float32)
        self.screen_hi = (thresholds + SCREEN_MARGIN).astype(np.float32)
        if feasible is not None:
            self.screen_lo[~feasible] = np.inf
        self.feasible = feasible
        self.active_indices = active_indices
        self.active_propagator = active_propagator
        self.culled_pairs = culled_pairs
        self.culled_satellites = culled_satellites
        self.cull_applied = cull_applied

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

    @property
    def n_satellites(self) -> int:
        return self.propagator.count

    @property
    def nothing_visible(self) -> bool:
        """True when culling proved no pair can ever connect."""
        return self.cull_applied and self.active_propagator is None


def plan_stream(
    propagator: BatchPropagator,
    geometry: SiteGeometry,
    grid: TimeGrid,
    chunk_size: Optional[int] = None,
    cull: bool = True,
    pack: bool = False,
) -> StreamPlan:
    """Resolve chunking and culling for one streaming computation.

    Args:
        propagator: The constellation to stream (callers adapt element
            lists / Constellations via the visibility layer).
        geometry: Precomputed site geometry (its grid must match ``grid``).
        grid: The time grid to stream over.
        chunk_size: Time samples per slab (default: adaptive, see
            :func:`default_chunk_size`); rounded down to a multiple of 8
            when ``pack`` so packed chunks land on byte boundaries.
        cull: Enable the geometric pair cull.  Infeasible pairs are always
            *counted* and never pass the screen; propagation is only skipped
            on the all-circular fast path (see the module docstring's
            bit-identity contract).
        pack: Round the chunk for bit packing.
    """
    if chunk_size is None:
        chunk_size = default_chunk_size(geometry.n_sites, propagator.count)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if pack:
        chunk_size = max(8, chunk_size // 8 * 8)
    thresholds = geometry.thresholds(propagator)

    feasible = None
    active_indices = None
    active_propagator = propagator
    culled_pairs = 0
    culled_satellites = 0
    cull_applied = False
    if cull:
        feasible = pair_cull_mask(propagator, geometry, thresholds)
        culled_pairs = int(np.count_nonzero(~feasible))
        # Skipping propagation for a subset is only bit-safe on the
        # circular fast path (elementwise trig, no batch-global Kepler
        # iteration); see BatchPropagator.all_circular.
        if culled_pairs and propagator.all_circular:
            reachable = feasible.any(axis=0)  # (N,) any site could connect
            culled_satellites = int(np.count_nonzero(~reachable))
            if culled_satellites:
                cull_applied = True
                active = np.flatnonzero(reachable)
                if active.size:
                    active_indices = active
                    active_propagator = propagator.subset(active)
                else:
                    active_propagator = None
    _PAIRS_CULLED.inc(culled_pairs)
    _SATS_CULLED.inc(culled_satellites)
    pairs = geometry.n_sites * propagator.count
    _PAIRS_EVALUATED.inc(pairs - culled_pairs)
    if culled_satellites:
        _LOG.debug(
            "pair cull: %d/%d pairs infeasible, %d/%d satellites skip propagation",
            culled_pairs, pairs, culled_satellites, propagator.count,
        )
    return StreamPlan(
        propagator=propagator,
        geometry=geometry,
        grid=grid,
        chunk_size=chunk_size,
        thresholds=thresholds,
        feasible=feasible,
        active_indices=active_indices,
        active_propagator=active_propagator,
        culled_pairs=culled_pairs,
        culled_satellites=culled_satellites,
        cull_applied=cull_applied,
    )


def screen_block_size(plan: StreamPlan) -> int:
    """Time samples per screen block: :data:`SCREEN_BLOCK_BYTES` of float32
    dots, at least one sample and at most one chunk or the whole grid."""
    longest = min(plan.chunk_size, plan.grid.count)
    sample_bytes = 4 * plan.n_sites * plan.n_satellites
    if sample_bytes == 0:
        return longest
    return max(1, min(longest, SCREEN_BLOCK_BYTES // sample_bytes))


def iter_slabs(plan: StreamPlan) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (time_offset, boolean slab (S, N, Tc)) per chunk, in order.

    The slab is freshly computed per chunk and owned by the consumer until
    the next iteration.  Each chunk is screened by :func:`_screen_chunk`,
    in float32 one time block at a time (:func:`screen_block_size`), and
    its near-threshold samples are decided exactly (module docstring).
    Culled satellites appear as all-False rows: their screen columns are
    zero and their pairs' ``screen_lo`` is infinite.

    The slab is a time-major view: its memory order is (Tc, S, N), so each
    time sample is one contiguous (S, N) plane.  The all-culled path
    yields C-ordered zeros instead.  Consumers must not assume either
    layout.
    """
    if plan.nothing_visible:
        for offset, chunk_times in _chunk_offsets(plan):
            slab = np.zeros(
                (plan.n_sites, plan.n_satellites, chunk_times.size), dtype=bool
            )
            _count_slab(plan, chunk_times.size)
            yield offset, slab
        return
    buffers = _ScreenBuffers(plan, screen_block_size(plan))
    for offset, chunk_times in _chunk_offsets(plan):
        slab, rechecks = _screen_chunk(plan, buffers, offset, chunk_times)
        _count_slab(plan, chunk_times.size)
        _count_screen(plan, chunk_times.size, rechecks)
        yield offset, slab.transpose(1, 2, 0)


class _ScreenBuffers:
    """One thread's reusable screen state: the stepper, a block of float32
    dots, on culled plans the (Tb, 3, N) operand whose culled columns
    stay zero across blocks (only active ones are written) and, given
    ``samples``, a (samples, S, N) slab that each chunk overwrites."""

    __slots__ = ("stepper", "dots", "full", "slab")

    def __init__(
        self, plan: StreamPlan, block: int, samples: Optional[int] = None
    ) -> None:
        self.stepper = ScreenStepper(plan.active_propagator, plan.grid.step_s, block)
        self.dots = np.empty(
            (block, plan.n_sites, plan.n_satellites), dtype=np.float32
        )
        self.full = None
        if plan.active_indices is not None:
            self.full = np.zeros((block, 3, plan.n_satellites), dtype=np.float32)
        self.slab = None
        if samples is not None:
            self.slab = np.empty((samples,) + plan.screen_lo.shape, dtype=bool)


def _screen_chunk(
    plan: StreamPlan, buffers: _ScreenBuffers, offset: int, times: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Decide every pair-sample of ``times`` (grid samples from ``offset``).

    Returns the C-contiguous time-major (Tc, S, N) boolean slab (a new
    array, or a view of ``buffers.slab`` when it has one) and the number
    of samples decided exactly.  Screens one block of ``buffers.dots``
    at a time and gathers the near-threshold samples of all blocks into
    one exact pass.  Touches no counter and no traced callable, so worker
    threads may run it; the caller accounts the chunk
    (:func:`_count_slab`, :func:`_count_screen`).
    """
    blocks, sat64 = buffers.stepper.chunk(times)
    site64, site32 = plan.geometry.screen_chunk(offset, times)
    if buffers.slab is None:
        slab = np.empty((times.size,) + plan.screen_lo.shape, dtype=bool)
    else:
        slab = buffers.slab[: times.size]
    pairs = plan.n_sites * plan.n_satellites
    near = []
    for begin, sat32 in blocks:
        size = sat32.shape[0]
        if buffers.full is not None:
            buffers.full[:size, :, plan.active_indices] = sat32
            sat32 = buffers.full[:size]
        block_dots = np.matmul(
            site32[begin : begin + size], sat32, out=buffers.dots[:size]
        )
        passed = np.greater_equal(
            block_dots, plan.screen_lo, out=slab[begin : begin + size]
        )
        in_band = _near_threshold(plan, block_dots, passed)
        if in_band.size:
            near.append(in_band + begin * pairs)
    if not near:
        return slab, 0
    near = np.concatenate(near)
    _decide_exactly(plan, times, near, slab, site64, sat64)
    return slab, int(near.size)


def _count_slab(plan: StreamPlan, samples: int) -> None:
    """Account one streamed chunk of ``samples`` time samples."""
    _SLABS_STREAMED.inc()
    _SLAB_BYTES.inc(plan.n_sites * plan.n_satellites * samples)


def _count_screen(plan: StreamPlan, samples: int, rechecks: int) -> None:
    """Account :func:`_screen_chunk`'s work over ``samples`` time samples:
    its exact rechecks and its state evaluations (one per active
    satellite and sample, plus one per recheck on circular pools, which
    re-evaluate the direction)."""
    propagator = plan.active_propagator
    _EXACT_RECHECKS.inc(rechecks)
    _STATE_EVALS.inc(
        samples * propagator.count + (rechecks if propagator.all_circular else 0)
    )


def _near_threshold(
    plan: StreamPlan, dots: np.ndarray, passed: np.ndarray
) -> np.ndarray:
    """Flat indices into one block's (Tb, S, N) ``passed = dots >=
    screen_lo`` of the samples that passed with ``dots < screen_hi``:
    the ones the screen cannot settle."""
    candidates = np.flatnonzero(passed)
    if not candidates.size:
        return candidates
    pair = candidates % (plan.n_sites * plan.n_satellites)
    return candidates[dots.reshape(-1)[candidates] < plan.screen_hi.reshape(-1)[pair]]


def _decide_exactly(
    plan: StreamPlan,
    times_s: np.ndarray,
    near: np.ndarray,
    slab: np.ndarray,
    site64: np.ndarray,
    sat64: Optional[np.ndarray],
) -> None:
    """Overwrite the screen decisions at flat indices ``near`` of one
    chunk's C-contiguous (Tc, S, N) ``slab`` exactly.

    Each gets :func:`exact_dots` of float64 directions compared against
    the float64 threshold.  ``sat64`` is the chunk's (N, Tc, 3) float64
    directions when the stepper returned them (eccentric pools);
    otherwise they are re-evaluated per sample, in one call per chunk,
    through the propagator's uncounted helper.
    """
    t, pair = np.divmod(near, plan.n_sites * plan.n_satellites)
    s, n = np.divmod(pair, plan.n_satellites)
    if sat64 is None:
        sat_units = plan.propagator._unit_positions_at(n, times_s[t])
    else:
        sat_units = sat64[n, t]
    slab.reshape(-1)[near] = exact_dots(sat_units, site64[s, t]) >= plan.thresholds[s, n]


def _chunk_offsets(plan: StreamPlan) -> Iterator[Tuple[int, np.ndarray]]:
    offset = 0
    for chunk_times in plan.grid.chunks(plan.chunk_size):
        yield offset, chunk_times
        offset += chunk_times.size


def stream_site_coverage(plan: StreamPlan) -> np.ndarray:
    """Per-site coverage mask (S, T): any satellite visible, streamed."""
    coverage = np.zeros((plan.n_sites, plan.grid.count), dtype=bool)
    visible_samples = 0
    with span("visibility.stream"):
        for offset, slab in iter_slabs(plan):
            np.any(slab, axis=1, out=coverage[:, offset : offset + slab.shape[2]])
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return coverage


def stream_satellite_activity(plan: StreamPlan) -> np.ndarray:
    """Per-satellite activity mask (N, T): any site visible, streamed."""
    activity = np.zeros((plan.n_satellites, plan.grid.count), dtype=bool)
    visible_samples = 0
    with span("visibility.stream"):
        for offset, slab in iter_slabs(plan):
            np.any(slab, axis=0, out=activity[:, offset : offset + slab.shape[2]])
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return activity


def stream_visible_counts(plan: StreamPlan) -> np.ndarray:
    """Visible-satellite counts per site per time (S, T), streamed.

    Accumulates into uint16 (uint32 for constellations past 65535
    satellites) — the count axis is bounded by N, not T, so the narrow
    dtype is exact and keeps the output 4-8x smaller than int64.
    """
    dtype = np.uint16 if plan.n_satellites < 2**16 else np.uint32
    counts = np.zeros((plan.n_sites, plan.grid.count), dtype=dtype)
    visible_samples = 0
    with span("visibility.stream"):
        for offset, slab in iter_slabs(plan):
            counts[:, offset : offset + slab.shape[2]] = slab.sum(
                axis=1, dtype=dtype
            )
            visible_samples += int(np.count_nonzero(slab))
    _finish(plan, visible_samples)
    return counts


#: Weight of each of a byte's 8 time samples: sample 8k + j sets bit
#: 7 - j of byte k, the big-endian bit order of ``np.packbits``.
_BIT_WEIGHTS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)

#: Packed bytes per (satellite, site) row that :func:`stream_packed_bits`
#: stages before writing them to the time-minor store: one cache line.
#: Writing each 64-sample slab's 8 bytes on its own costs one short
#: strided run per row, ~3x slower than line-sized runs.
PACK_STAGE_BYTES = 64


def _pack_time_major(slab: np.ndarray, out: np.ndarray) -> None:
    """Pack a C-contiguous time-major (Tc, S, N) slab into ``out`` (B, S, N):
    ``np.packbits`` along its time axis.

    Packs along the slab's memory order instead of across it: each time
    sample is one contiguous (S, N) plane, and a byte plane is the
    weighted sum of 8 such 0/1 planes — exact in uint8, the weights being
    distinct powers of two that sum to 255.  ``np.packbits`` along the
    strided time axis took 2.9 s against 0.05 s for a week of full-pool
    64-sample slabs (2-CPU x86-64 host).  A partial final byte keeps zero
    low bits, as packbits pads.
    """
    planes = slab.view(np.uint8)
    full, rest = divmod(planes.shape[0], 8)
    np.einsum(
        "kjsn,j->ksn",
        planes[: 8 * full].reshape((full, 8) + planes.shape[1:]),
        _BIT_WEIGHTS,
        out=out[:full],
    )
    if rest:
        np.einsum("jsn,j->sn", planes[8 * full :], _BIT_WEIGHTS[:rest], out=out[full])


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_T = TypeVar("_T")


def run_workers(work: Callable[[int], _T], workers: int) -> List[_T]:
    """``[work(0), ..., work(workers - 1)]``: worker 0 on the calling
    thread, the others on a pool of ``workers - 1`` threads; inline, with
    no pool, for one.

    Waits for every worker.  If any failed, raises a failed worker's own
    error rather than the ``BrokenBarrierError`` a barrier it aborted left
    the others.  After a pool, hands freed heap pages back to the OS
    (:func:`_trim_heap`): the pool threads' malloc arenas would keep them
    resident, and a later phase whose peak exceeds the threaded one's
    would carry them on top of its own.  glibc does not shrink a thread
    arena's top chunk this way, so what a worker allocates at once should
    stay small.
    """
    if workers == 1:
        return [work(0)]
    from concurrent.futures import Future, ThreadPoolExecutor

    own: Future = Future()
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(work, worker) for worker in range(1, workers)]
        try:
            own.set_result(work(0))
        except BaseException as error:  # Raised below, once the pool joins.
            own.set_exception(error)
    futures.insert(0, own)
    _trim_heap()
    errors = [future.exception() for future in futures]
    failed = [error for error in errors if error is not None]
    if failed:
        broken = threading.BrokenBarrierError
        raise min(failed, key=lambda error: isinstance(error, broken))
    return [future.result() for future in futures]


def _trim_heap() -> None:
    """Hand every malloc arena's free pages back to the OS: glibc's
    ``malloc_trim(0)``, skipped where the C library has none."""
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (ImportError, OSError, AttributeError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _pack_workers(plan: StreamPlan) -> int:
    """Threads for one packed build: one per available CPU, but no more
    than leave each task 8 samples of a chunk."""
    return max(1, min(_available_cpus(), plan.chunk_size // 8))


def stream_packed_bits(plan: StreamPlan) -> np.ndarray:
    """Bit-pack the visibility tensor along time, chunk by chunk.

    Returns uint8 of shape (S, N, ceil(T/8)), bit-identical to
    ``np.packbits`` of the materialized tensor along time; the final
    partial byte is zero-padded (padding reads "not visible").

    The bytes are stored satellite-major: the result is the (S, N, B)
    transpose view of one C-contiguous (N, S, B) buffer, so a satellite's
    rows at every site are one contiguous run.  Every Monte-Carlo query
    selects satellites, and on this layout a subset is one gather of n
    such runs; ``result.transpose(1, 0, 2)`` recovers the buffer without
    a copy.

    The build runs on one worker thread per available CPU
    (:func:`_pack_workers`; inline, with no pool, for one).  Each chunk
    splits into tasks of ``chunk_size // workers`` samples, a multiple of
    8 so that every task packs whole bytes, and the tasks of each stage
    (:data:`PACK_STAGE_BYTES` per row) are dealt round-robin to the
    workers.  A task screens its samples (:func:`_screen_chunk`) into
    its worker's slab and packs them straight into its own rows of the
    one shared stage.  Once all of a stage's tasks are done (a barrier),
    each worker writes the stage's bytes of its own satellite range to
    the store, and a second barrier keeps the next stage's tasks off the
    stage until every range is written.  Each worker also zero-fills its
    range of the store first, in order (the first touch that keeps the
    store's pages sequential).  The calling thread is worker 0
    (:func:`run_workers`); after the join it counts the tallies each
    worker returns (module docstring, *Threads*).

    Transients stay at the serial build's total.  A worker's screen
    block is ``1/workers`` of :func:`screen_block_size`, and its stepper,
    dots and slab of one task are made once for the whole build, so the
    workers' slabs add up to one chunk's.  Handing out a whole chunk per
    worker instead, or holding more slabs than workers, raised the
    build's peak RSS by 7-9 MiB on a 2-CPU host.  The store is the same
    bytes for any worker count.

    Requires a plan built with ``pack=True`` (chunk a multiple of 8, so
    every chunk lands on a byte boundary).
    """
    if plan.chunk_size % 8:
        raise ValueError("packing needs a plan built with pack=True")
    n_bytes = (plan.grid.count + 7) // 8
    # empty + sequential fill, not np.zeros: the packed tensor is a
    # long-lived cache read by thousands of gather calls, and calloc's
    # lazily faulted pages (first touched in the scattered per-chunk write
    # order of the stage flushes) map poorly — downstream reductions
    # measure ~1.8x slower than on a sequentially first-touched buffer.
    out = np.empty((plan.n_satellites, plan.n_sites, n_bytes), dtype=np.uint8)
    with span("visibility.pack"):
        if plan.nothing_visible:
            out.fill(0)
            for _, chunk_times in _chunk_offsets(plan):
                _count_slab(plan, chunk_times.size)
            visible_samples = 0
        else:
            visible_samples = _pack_stages(plan, out, _pack_workers(plan))
    _finish(plan, visible_samples)
    return out.transpose(1, 0, 2)


def _pack_stages(plan: StreamPlan, out: np.ndarray, workers: int) -> int:
    """Fill the empty (N, S, B) store ``out`` for :func:`stream_packed_bits`
    on ``workers`` threads (:func:`run_workers`); returns the visible
    samples."""
    task = max(8, plan.chunk_size // workers // 8 * 8)
    block = max(1, screen_block_size(plan) // workers)
    stage_bytes = min(out.shape[2], max(plan.chunk_size // 8, PACK_STAGE_BYTES))
    stage = np.empty((stage_bytes, plan.n_sites, plan.n_satellites), dtype=np.uint8)
    # (first store byte, bytes, tasks) per stage; a task is (grid offset,
    # times, first stage row).  A chunk never straddles two stages.
    stages = []
    first = staged = 0
    tasks = []
    for offset, chunk_times in _chunk_offsets(plan):
        size = (chunk_times.size + 7) // 8
        if staged + size > stage_bytes:
            stages.append((first, staged, tasks))
            first, staged, tasks = first + staged, 0, []
        for begin in range(0, chunk_times.size, task):
            times = chunk_times[begin : begin + task]
            tasks.append((offset + begin, times, staged + begin // 8))
        staged += size
        _count_slab(plan, chunk_times.size)
    stages.append((first, staged, tasks))
    bounds = np.linspace(0, plan.n_satellites, workers + 1).astype(int)
    # Made here, not on the workers: in their threads' malloc arenas the
    # buffers raised the full-pool build's peak RSS by ~1.3 MiB.
    screens = [
        _ScreenBuffers(plan, block, min(task, plan.grid.count))
        for _ in range(workers)
    ]
    barrier = threading.Barrier(workers)

    def work(worker: int) -> Tuple[int, int, int]:
        """Every ``workers``-th task of each stage; then, once all of the
        stage's tasks are done, its bytes of this worker's satellites."""
        sats = slice(bounds[worker], bounds[worker + 1])
        buffers = screens[worker]
        samples = rechecks = visible = 0
        try:
            out[sats].fill(0)
            for first, size, tasks in stages:
                for offset, times, row in tasks[worker::workers]:
                    slab, found = _screen_chunk(plan, buffers, offset, times)
                    _pack_time_major(slab, stage[row : row + (times.size + 7) // 8])
                    samples += times.size
                    rechecks += found
                    visible += int(np.count_nonzero(slab))
                barrier.wait()
                rows = stage[:size, :, sats]
                out[sats, :, first : first + size] = rows.transpose(2, 1, 0)
                barrier.wait()  # No task packs into a stage still being written.
        except BaseException:
            barrier.abort()  # Release the workers waiting for this one.
            raise
        return samples, rechecks, visible

    tallies = run_workers(work, workers)
    for samples, rechecks, _ in tallies:
        _count_screen(plan, samples, rechecks)
    return sum(visible for _, _, visible in tallies)


def checked_index(index, n: int, axis: str) -> int:
    """One index as an int; IndexError unless it is in [0, n)."""
    i = int(index)
    if not 0 <= i < n:
        raise IndexError(f"{axis} index {i} is out of range for {n} {axis}s")
    return i


def checked_indices(indices, n: int, axis: str) -> np.ndarray:
    """Indices as a flat intp array; IndexError unless each is in [0, n).

    Numpy would read a negative index from the end and so answer for
    another site or satellite.  One ``min`` and one ``max`` per call keep
    the check to microseconds on a Monte-Carlo subset.
    """
    ids = np.asarray(indices, dtype=np.intp).reshape(-1)
    if ids.size:
        low, high = ids.min(), ids.max()
        checked_index(low if low < 0 else high, n, axis)
    return ids


def checked_index_rows(indices, n: int, axis: str) -> np.ndarray:
    """Index rows as a 2-D intp array; IndexError unless each is in [0, n).

    A ``(rows, k)`` matrix keeps its shape: one subset per row, the
    batched form of a Monte-Carlo sweep point.  Any other input is
    flattened into a single row, as :func:`checked_indices` reads it.
    The whole matrix is checked at once.
    """
    ids = np.asarray(indices, dtype=np.intp)
    if ids.ndim != 2:
        ids = ids.reshape(1, -1)
    checked_indices(ids, n, axis)
    return ids


def checked_withdrawn(withdrawn, n: int) -> int:
    """How many of n satellites withdraw, as an int; ValueError unless in [0, n].

    The count splits a withdrawal order, and a bad one would slice
    silently: ``order[-3:]`` keeps the last three, ``order[n + 1:]`` none.
    """
    i = int(withdrawn)
    if not 0 <= i <= n:
        raise ValueError(f"withdrawn count {i} is outside [0, {n}]")
    return i


def _finish(plan: StreamPlan, visible_samples: int) -> None:
    record_visibility_metrics(
        plan.n_sites, plan.n_satellites, plan.grid.count, visible_samples
    )
