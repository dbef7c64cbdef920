"""Event-driven contact intervals: analytic (rise, set) windows.

The grid engine answers every coverage question by sampling visibility on a
dense time grid — O(sites x sats x samples) regardless of how sparse the
contacts actually are.  This module refactors that to the event
representation the paper's MP-LEO market reasons about: per (site,
satellite) *contact windows* ``[rise_s, set_s)`` found analytically.

The finder works in two stages (the classic ``get_overpasses`` idiom):

1. **Coarse scan** — stream the exact same boolean visibility slabs the
   grid engine uses (:func:`repro.sim.kernels.plan_stream` /
   :func:`~repro.sim.kernels.iter_slabs`) and record every sign change of
   ``dot(unit_site, unit_sat) - cos_threshold`` between consecutive
   samples.  Each slab is read as time-major ``(Tc, S*N)`` planes, so one
   flat pass (``flatnonzero`` over the difference of consecutive planes,
   split by ``divmod`` into sample and pair) finds every in-chunk change;
   the previous chunk's last plane closes the seam.  Because the scan *is*
   the grid kernel, a pass is detected iff the grid detects it, and
   resampling the refined intervals back onto the scan grid reproduces
   the grid masks bit-for-bit.
2. **Edge refinement** — each detected transition brackets a root of the
   continuous elevation function in ``(t_{k-1}, t_k]``, narrowed to
   ``tolerance_s`` against the exact topocentric geometry
   (:func:`_edge_visibility`: the propagator's uncounted
   ``_unit_positions_at`` against the rotating site direction).  The
   result is by definition a clamped, vectorized bisection's
   (:func:`_bisect_edges`), but on circular pools it is found cheaper: a
   closed-form Newton estimate (:func:`_newton_edges`, float32 steps then
   a float64 one) picks the dyadic cell bisection would end in, and two
   exact evaluations at the cell's ends confirm it; only edges that fail
   the check, and every edge of an eccentric pool, are bisected
   (:func:`_estimate_edges`).  The refined edge is taken from the
   *new-state* side of the cell, so the resampling identity above
   survives refinement exactly.

On top of the windows sits an interval algebra (:class:`IntervalSet`:
union / intersect / complement, coverage fraction, gap list) and grouped
event-sweep reductions (:class:`ContactIntervals`: per-site coverage
fractions, per-satellite active fractions, k-coverage) that reproduce
every reduction the grid engine offers — with error bounded by one coarse
step per contact edge instead of one step per *sample*.  The reductions
read a once-sorted :class:`EventIndex` of every rise/set event, so a
subset query filters events and sums spans; it never sorts.

Threads
-------
Refinement batches are independent: each reads its own edges and writes
its own slice of the result.  :func:`_refine_windows` therefore splits
them over one worker per available CPU
(:func:`repro.sim.kernels.run_workers`, the runner the packed visibility
build also uses: worker 0 is the calling thread, and one CPU runs inline
with no pool).  Each worker refines batches of ``REFINE_BATCH //
workers`` edges, taking the next one when it finishes one, so the
refine's transients stay at the serial total and a worker the host gives
less CPU time takes fewer batches.  Workers touch no counter and no
traced public method: they evaluate through ``_unit_positions_at`` and
return their evaluation tallies, which the calling thread counts
(``orbits.propagator.state_evaluations``) with the ``sim.intervals.*``
counters.  A pool thread's malloc arena keeps its peak after the refine,
and every figure that follows carries it, so the batch code drops its
per-edge arrays early (:func:`_estimate_edges`), the runner hands the
freed pages back to the OS after the join, and
:func:`find_contact_intervals` does so again once :func:`_refine_windows`
has returned and dropped its edge arrays.  The scan stays serial.
"""

from __future__ import annotations

import math
import threading
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.constants import EARTH_ROTATION_RATE
from repro.obs import metrics
from repro.obs.trace import span
from repro.orbits.frames import gmst_rad
from repro.ground.sites import GroundSite
from repro.orbits.propagator import BatchPropagator, _reduced
from repro.sim import kernels
from repro.sim.clock import TimeGrid

#: Default width to which each rise/set edge is narrowed (seconds).
DEFAULT_EDGE_TOLERANCE_S = 1e-2

#: Edges refined per batch on one CPU; bounds the temporary (K,) arrays.
#: With more CPUs each worker refines batches of ``REFINE_BATCH //
#: workers``, so the batches in flight add up to this many.  At 1 << 16
#: the temporaries a batch frees were handed back to the OS and faulted
#: in again by the next batch: ~19 k minor faults inside the refine of a
#: full-pool 1-day build at 300 s.  At 1 << 14 they are reused (2.8 k
#: faults) and that refine's median fell 0.53 -> 0.47 s over 8 runs on a
#: 2-CPU x86-64 host; over 7 days it is unchanged.  The failed estimates'
#: bisection runs after the workers, on the calling thread, in batches of
#: this size.
REFINE_BATCH = 1 << 14

#: Newton steps behind each edge estimate (:func:`_newton_edges`).
NEWTON_STEPS = 5

_CONTACTS_FOUND = metrics.counter("sim.intervals.contacts")
_EDGES_REFINED = metrics.counter("sim.intervals.refined_edges")
_SCAN_TRANSITIONS = metrics.counter("sim.intervals.scan_transitions")
_REFINE_FALLBACKS = metrics.counter("sim.intervals.refine_fallbacks")
#: The propagator's own counter: :func:`_refine_windows` counts the refine's
#: exact evaluations on the calling thread.
_STATE_EVALS = metrics.counter("orbits.propagator.state_evaluations")


def _as_float_array(values) -> np.ndarray:
    return np.atleast_1d(np.asarray(values, dtype=np.float64))


class IntervalSet:
    """A normalized set of half-open intervals over a fixed horizon.

    Intervals are ``[start, stop)`` within ``[start_s, end_s)``.  The
    constructor normalizes: clips to the horizon, drops zero-length
    intervals, sorts, and merges overlapping *and touching* intervals, so
    ``starts``/``stops`` are always strictly interleaved
    (``starts[i] < stops[i] < starts[i+1]``).
    """

    __slots__ = ("starts", "stops", "start_s", "end_s")

    def __init__(self, starts, stops, start_s: float, end_s: float) -> None:
        if end_s < start_s:
            raise ValueError("horizon end precedes start")
        self.start_s = float(start_s)
        self.end_s = float(end_s)
        starts = _as_float_array(starts)
        stops = _as_float_array(stops)
        if starts.shape != stops.shape:
            raise ValueError("starts and stops must have the same shape")
        starts = np.clip(starts, self.start_s, self.end_s)
        stops = np.clip(stops, self.start_s, self.end_s)
        keep = stops > starts
        starts = starts[keep]
        stops = stops[keep]
        if starts.size:
            order = np.argsort(starts, kind="stable")
            starts = starts[order]
            stops = stops[order]
            reach = np.maximum.accumulate(stops)
            # A new merged run begins where the next start lies strictly
            # beyond everything seen so far; equality (touching) merges.
            new_run = np.empty(starts.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = starts[1:] > reach[:-1]
            heads = np.flatnonzero(new_run)
            tails = np.append(heads[1:] - 1, starts.size - 1)
            starts = starts[heads]
            stops = reach[tails]
        self.starts = starts
        self.stops = stops

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, start_s: float, end_s: float) -> "IntervalSet":
        return cls(np.empty(0), np.empty(0), start_s, end_s)

    @classmethod
    def full(cls, start_s: float, end_s: float) -> "IntervalSet":
        return cls(np.array([start_s]), np.array([end_s]), start_s, end_s)

    @classmethod
    def _normalized(
        cls, starts: np.ndarray, stops: np.ndarray, start_s: float, end_s: float
    ) -> "IntervalSet":
        """A set from float64 arrays already in the constructor's normal
        form (inside the horizon, non-empty, sorted, strictly
        interleaved), without normalizing them again."""
        interval_set = cls.__new__(cls)
        interval_set.start_s = float(start_s)
        interval_set.end_s = float(end_s)
        interval_set.starts = starts
        interval_set.stops = stops
        return interval_set

    # -- basic properties -------------------------------------------------

    @property
    def count(self) -> int:
        return int(self.starts.size)

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def total_s(self) -> float:
        """Total covered seconds."""
        return float((self.stops - self.starts).sum())

    @property
    def coverage_fraction(self) -> float:
        if self.span_s == 0.0:
            return 0.0
        return self.total_s / self.span_s

    def durations_s(self) -> np.ndarray:
        return self.stops - self.starts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self.start_s == other.start_s
            and self.end_s == other.end_s
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.stops, other.stops)
        )

    def __hash__(self) -> int:  # pragma: no cover - sets are not hashed
        return id(self)

    def __repr__(self) -> str:
        return (
            f"IntervalSet({self.count} intervals, "
            f"{self.total_s:.1f}s of [{self.start_s}, {self.end_s}))"
        )

    def _require_same_horizon(self, other: "IntervalSet") -> None:
        if (self.start_s, self.end_s) != (other.start_s, other.end_s):
            raise ValueError("interval sets span different horizons")

    # -- algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        self._require_same_horizon(other)
        return IntervalSet(
            np.concatenate([self.starts, other.starts]),
            np.concatenate([self.stops, other.stops]),
            self.start_s,
            self.end_s,
        )

    def complement(self) -> "IntervalSet":
        """Uncovered time over the horizon (includes boundary gaps)."""
        # The pieces between normalized intervals are sorted, strictly
        # interleaved and non-empty; only the two boundary pieces can be
        # empty.
        starts = np.concatenate([[self.start_s], self.stops])
        stops = np.concatenate([self.starts, [self.end_s]])
        keep = stops > starts
        return IntervalSet._normalized(
            starts[keep], stops[keep], self.start_s, self.end_s
        )

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # De Morgan: endpoints all come from the operands or the horizon
        # bounds, so the result is exact (no float arithmetic on times).
        self._require_same_horizon(other)
        return self.complement().union(other.complement()).complement()

    def gaps(self) -> "IntervalSet":
        """Alias of :meth:`complement`, matching grid gap semantics
        (runs of uncovered samples at the horizon edges count as gaps)."""
        return self.complement()

    def gap_lengths_s(self) -> np.ndarray:
        return self.complement().durations_s()

    # -- sampling ---------------------------------------------------------

    def sample(self, times_s) -> np.ndarray:
        """Boolean membership of each time: ``starts <= t < stops``."""
        times = np.asarray(times_s, dtype=np.float64)
        idx = np.searchsorted(self.starts, times, side="right") - 1
        out = np.zeros(times.shape, dtype=bool)
        valid = idx >= 0
        out[valid] = times[valid] < self.stops[idx[valid]]
        return out


def sweep_accumulate(
    times: np.ndarray, deltas: np.ndarray, groups: np.ndarray, n_groups: int
) -> np.ndarray:
    """Accumulate covered seconds per group from a grouped +1/-1 stream.

    Inputs are contiguous per group and time-sorted within each group;
    each group's deltas sum to zero, so one global cumsum never carries a
    positive count across a group boundary.  Spans are added in array
    order per group, the order of ``np.bincount``'s weighted pass.  Events
    with equal times may come in any order: they only reorder zero-length
    spans (adding ``+0.0`` is exact), and the count after a run of ties
    does not depend on their order.
    """
    if times.size == 0:
        return np.zeros(n_groups, dtype=np.float64)
    count = np.cumsum(deltas, dtype=np.int64)
    same = groups[1:] == groups[:-1]
    covered = np.where(same & (count[:-1] > 0), times[1:] - times[:-1], 0.0)
    return np.bincount(groups[:-1], weights=covered, minlength=n_groups)


def _csr_gather(
    offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR multi-row gather.

    Returns ``(flat, positions)``: indices of every entry of the requested
    rows, row after row, plus the position within ``rows`` each entry came
    from.
    """
    first = offsets[rows]
    counts = offsets[rows + 1] - first
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    positions = np.repeat(np.arange(rows.size, dtype=np.intp), counts)
    cum = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.intp) - np.repeat(cum, counts)
    flat = np.repeat(first, counts) + within
    return flat, positions


def _id_dtype(n: int) -> type:
    """The smallest signed integer type holding the ids ``0 .. n - 1``."""
    return np.int16 if n <= np.iinfo(np.int16).max + 1 else np.int32


class EventIndex(NamedTuple):
    """A store's 2·W rise (+1) and set (-1) events, sorted two ways.

    Site-major: ``site_times`` is ordered by (site, time); site ``s`` owns
    ``site_offsets[s]:site_offsets[s + 1]``, and each event carries its
    site (``site_groups``), satellite (``site_sats``) and delta.
    Satellite-major: ``sat_times`` is ordered by (satellite, time) with
    ``sat_offsets`` per satellite and each event's site and delta.  Ties
    keep store order (the sorts are stable).  Either order is time-sorted
    within each group, which is all :func:`sweep_accumulate` needs, so a
    query filters events and never sorts.
    """

    site_times: np.ndarray
    site_groups: np.ndarray
    site_sats: np.ndarray
    site_deltas: np.ndarray
    site_offsets: np.ndarray
    sat_times: np.ndarray
    sat_sites: np.ndarray
    sat_deltas: np.ndarray
    sat_offsets: np.ndarray


class ContactIntervals:
    """CSR-packed contact windows for every (site, satellite) pair.

    Pair ``(s, n)`` owns the slice
    ``pair_offsets[s * n_satellites + n] : pair_offsets[... + 1]`` of the
    flat ``rise_s`` / ``set_s`` arrays (sorted by rise within each pair).
    ``truncated_start`` / ``truncated_end`` flag windows clipped by the
    horizon rather than closed by a real elevation crossing.

    The subset reductions read an :class:`EventIndex` built on first use
    (:meth:`event_index`) and cached for the store's lifetime, so a query
    filters pre-sorted events instead of sorting its own.
    """

    __slots__ = (
        "n_sites",
        "n_satellites",
        "start_s",
        "end_s",
        "rise_s",
        "set_s",
        "truncated_start",
        "truncated_end",
        "pair_offsets",
        "_events",
    )

    def __init__(
        self,
        n_sites: int,
        n_satellites: int,
        start_s: float,
        end_s: float,
        rise_s: np.ndarray,
        set_s: np.ndarray,
        truncated_start: np.ndarray,
        truncated_end: np.ndarray,
        pair_offsets: np.ndarray,
    ) -> None:
        self.n_sites = int(n_sites)
        self.n_satellites = int(n_satellites)
        self.start_s = float(start_s)
        self.end_s = float(end_s)
        self.rise_s = rise_s
        self.set_s = set_s
        self.truncated_start = truncated_start
        self.truncated_end = truncated_end
        self.pair_offsets = pair_offsets
        self._events: Optional[EventIndex] = None
        expected = self.n_sites * self.n_satellites + 1
        if pair_offsets.shape != (expected,):
            raise ValueError("pair_offsets length must be n_sites*n_sats + 1")

    @property
    def n_contacts(self) -> int:
        return int(self.rise_s.size)

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s

    def nbytes(self) -> int:
        """Resident payload size (the figure reported by benchmarks).

        Counts the windows only, not the lazily built :meth:`event_index`.
        """
        return int(
            self.rise_s.nbytes
            + self.set_s.nbytes
            + self.truncated_start.nbytes
            + self.truncated_end.nbytes
            + self.pair_offsets.nbytes
        )

    # -- index helpers ----------------------------------------------------

    def _sat_array(self, sat_indices) -> np.ndarray:
        if sat_indices is None:
            return np.arange(self.n_satellites, dtype=np.intp)
        return kernels.checked_indices(sat_indices, self.n_satellites, "satellite")

    def _site_array(self, site_indices) -> np.ndarray:
        if site_indices is None:
            return np.arange(self.n_sites, dtype=np.intp)
        return kernels.checked_indices(site_indices, self.n_sites, "site")

    def _site(self, site_index: int) -> int:
        return kernels.checked_index(site_index, self.n_sites, "site")

    def _sat(self, sat_index: int) -> int:
        return kernels.checked_index(sat_index, self.n_satellites, "satellite")

    def _pair_slice(self, site_index: int, sat_index: int) -> slice:
        p = self._site(site_index) * self.n_satellites + self._sat(sat_index)
        return slice(int(self.pair_offsets[p]), int(self.pair_offsets[p + 1]))

    def event_index(self) -> EventIndex:
        """The store's :class:`EventIndex`, built on the first call.

        One stable time argsort is shared by two stable integer sorts, by
        site and by satellite.  The index holds 2·W events in each order:
        48 bytes per window with 16-bit ids, about twice :meth:`nbytes`.
        """
        if self._events is None:
            self._events = self._build_event_index()
        return self._events

    def _build_event_index(self) -> EventIndex:
        n_sites, n_sats = self.n_sites, self.n_satellites
        pair_counts = np.diff(self.pair_offsets).reshape(n_sites, n_sats)
        window_pair = np.repeat(
            np.arange(n_sites * n_sats, dtype=np.int64), pair_counts.ravel()
        )
        window_site = (window_pair // n_sats).astype(_id_dtype(n_sites))
        window_sat = (window_pair % n_sats).astype(_id_dtype(n_sats))
        del window_pair
        n_windows = self.n_contacts
        times = np.concatenate([self.rise_s, self.set_s])
        deltas = np.concatenate(
            [np.ones(n_windows, dtype=np.int8), -np.ones(n_windows, dtype=np.int8)]
        )
        sites = np.concatenate([window_site, window_site])
        sats = np.concatenate([window_sat, window_sat])
        by_time = np.argsort(times, kind="stable")
        site_order = by_time[np.argsort(sites[by_time], kind="stable")]
        sat_order = by_time[np.argsort(sats[by_time], kind="stable")]
        del by_time
        site_offsets = np.zeros(n_sites + 1, dtype=np.int64)
        np.cumsum(2 * pair_counts.sum(axis=1), out=site_offsets[1:])
        sat_offsets = np.zeros(n_sats + 1, dtype=np.int64)
        np.cumsum(2 * pair_counts.sum(axis=0), out=sat_offsets[1:])
        return EventIndex(
            site_times=times[site_order],
            site_groups=sites[site_order],
            site_sats=sats[site_order],
            site_deltas=deltas[site_order],
            site_offsets=site_offsets,
            sat_times=times[sat_order],
            sat_sites=sites[sat_order],
            sat_deltas=deltas[sat_order],
            sat_offsets=sat_offsets,
        )

    # -- per-pair views ---------------------------------------------------

    def pair(self, site_index: int, sat_index: int) -> IntervalSet:
        sl = self._pair_slice(site_index, sat_index)
        return IntervalSet(
            self.rise_s[sl], self.set_s[sl], self.start_s, self.end_s
        )

    def pair_count(self, site_index: int, sat_index: int) -> int:
        sl = self._pair_slice(site_index, sat_index)
        return sl.stop - sl.start

    def pair_windows(
        self, site_index: int, sat_index: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw (rise, set, truncated_start, truncated_end) arrays, aligned.

        Unlike :meth:`pair`, which normalizes into an :class:`IntervalSet`,
        this preserves window order so truncation flags stay aligned with
        their windows.
        """
        sl = self._pair_slice(site_index, sat_index)
        return (
            self.rise_s[sl],
            self.set_s[sl],
            self.truncated_start[sl],
            self.truncated_end[sl],
        )

    # -- grid-parity reductions -------------------------------------------

    def site_union(self, site_index: int, sat_indices=None) -> IntervalSet:
        """Coverage of one site by a satellite subset (grid ``site_mask``)."""
        site = self._site(site_index)
        sats = self._sat_array(sat_indices)
        if sats.size == 0:
            return IntervalSet.empty(self.start_s, self.end_s)
        flat, _ = _csr_gather(self.pair_offsets, site * self.n_satellites + sats)
        return IntervalSet(
            self.rise_s[flat], self.set_s[flat], self.start_s, self.end_s
        )

    def satellite_union(self, sat_index: int, site_indices=None) -> IntervalSet:
        """Time a satellite is busy serving any of the given sites."""
        sat = self._sat(sat_index)
        sites = self._site_array(site_indices)
        if sites.size == 0:
            return IntervalSet.empty(self.start_s, self.end_s)
        flat, _ = _csr_gather(self.pair_offsets, sites * self.n_satellites + sat)
        return IntervalSet(
            self.rise_s[flat], self.set_s[flat], self.start_s, self.end_s
        )

    def coverage_fractions(self, sat_indices=None) -> np.ndarray:
        """Per-site covered fraction: the site-major events of the subset.

        A ``(runs, k)`` index matrix is a batch of subsets: the result is
        ``(runs, S)``, one sweep per row, row *i* equal bit for bit to the
        call on row *i*.
        """
        if sat_indices is None:
            return self._subset_coverage(None)
        runs = kernels.checked_index_rows(
            sat_indices, self.n_satellites, "satellite"
        )
        out = np.empty((runs.shape[0], self.n_sites))
        for row, sats in zip(out, runs):
            row[:] = self._subset_coverage(sats)
        return out if np.ndim(sat_indices) == 2 else out[0]

    def _subset_coverage(self, sats: Optional[np.ndarray]) -> np.ndarray:
        """Covered fraction per site of checked indices (every satellite
        for None)."""
        size = self.n_satellites if sats is None else sats.size
        if size == 0 or self.span_s == 0.0:
            return np.zeros(self.n_sites)
        events = self.event_index()
        times, deltas, groups = (
            events.site_times, events.site_deltas, events.site_groups
        )
        if sats is not None:
            member = np.zeros(self.n_satellites, dtype=bool)
            member[sats] = True
            # Positions, not a boolean mask: numpy gathers by position
            # several times faster than it compresses by a mask.
            keep = np.flatnonzero(member.take(events.site_sats))
            times, deltas, groups = times[keep], deltas[keep], groups[keep]
        seconds = sweep_accumulate(times, deltas, groups, self.n_sites)
        return seconds / self.span_s

    def withdrawal_coverage(
        self, order, withdrawn: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Coverage fractions (S,) of ``order`` and of ``order[withdrawn:]``.

        Equal bit for bit to ``(coverage_fractions(order),
        coverage_fractions(order[withdrawn:]))`` from one ``take`` over the
        site-major events: each satellite is coded 0 (absent), 1
        (withdrawn) or 2 (kept).  The base sweeps the events coded ``> 0``
        and the kept tail the base events coded ``== 2``: the events, in
        the order, that the separate calls keep.  A ``(runs, k)`` matrix
        of orders gives two ``(runs, S)`` arrays, one sweep pair per row.
        """
        runs = kernels.checked_index_rows(order, self.n_satellites, "satellite")
        split = kernels.checked_withdrawn(withdrawn, runs.shape[1])
        base = np.empty((runs.shape[0], self.n_sites))
        kept = np.empty_like(base)
        for index, sats in enumerate(runs):
            base[index], kept[index] = self._withdrawal(sats, split)
        if np.ndim(order) == 2:
            return base, kept
        return base[0], kept[0]

    def _withdrawal(
        self, sats: np.ndarray, split: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`withdrawal_coverage` of one checked order."""
        if sats.size == 0 or self.span_s == 0.0:
            return np.zeros(self.n_sites), np.zeros(self.n_sites)
        code = np.zeros(self.n_satellites, dtype=np.int8)
        code[sats[:split]] = 1
        code[sats[split:]] = 2  # After the head: a repeated id stays kept.
        events = self.event_index()
        event_code = code.take(events.site_sats)
        # Positions, not boolean masks (see coverage_fractions).
        keep = np.flatnonzero(event_code > 0)
        base = (events.site_times[keep], events.site_deltas[keep], events.site_groups[keep])
        kept = np.flatnonzero(event_code[keep] == 2)
        return tuple(
            sweep_accumulate(times, deltas, groups, self.n_sites) / self.span_s
            for times, deltas, groups in (base, [column[kept] for column in base])
        )

    def satellite_active_fractions(
        self, sat_indices=None, site_indices=None
    ) -> np.ndarray:
        """Fraction of the horizon each satellite serves >= 1 site."""
        sats = self._sat_array(sat_indices)
        sites = self._site_array(site_indices)
        if sats.size == 0:
            return np.zeros(0)
        if sites.size == 0 or self.span_s == 0.0:
            return np.zeros(sats.size)
        events = self.event_index()
        flat, rows = _csr_gather(events.sat_offsets, sats)
        if site_indices is not None:
            member = np.zeros(self.n_sites, dtype=bool)
            member[sites] = True
            keep = np.flatnonzero(member.take(events.sat_sites[flat]))
            flat, rows = flat[keep], rows[keep]
        seconds = sweep_accumulate(
            events.sat_times[flat], events.sat_deltas[flat], rows, sats.size
        )
        return seconds / self.span_s

    def visible_count_steps(
        self, site_index: int, sat_indices=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Step function of simultaneously-visible satellite counts.

        Returns ``(times, counts)`` where ``counts[i]`` holds on
        ``[times[i], times[i+1])`` (and from ``times[-1]`` onward), with
        ``times[0] == start_s``.  A satellite listed twice counts twice.
        """
        site = self._site(site_index)
        sats = self._sat_array(sat_indices)
        empty = np.array([self.start_s]), np.zeros(1, dtype=np.int64)
        if sats.size == 0:
            return empty
        events = self.event_index()
        lo, hi = events.site_offsets[site], events.site_offsets[site + 1]
        times = events.site_times[lo:hi]
        deltas = events.site_deltas[lo:hi]
        if sat_indices is not None:
            weight = np.bincount(sats, minlength=self.n_satellites)
            weight = weight.take(events.site_sats[lo:hi])
            keep = np.flatnonzero(weight)
            times, deltas = times[keep], deltas[keep] * weight[keep]
        if times.size == 0:
            return empty
        counts = np.cumsum(deltas, dtype=np.int64)
        # The count after a run of equal times is the same in any order.
        last = np.empty(times.size, dtype=bool)
        last[:-1] = times[1:] != times[:-1]
        last[-1] = True
        times = times[last]
        counts = counts[last]
        if times[0] > self.start_s:
            times = np.concatenate([[self.start_s], times])
            counts = np.concatenate([[0], counts])
        return times, counts

    def k_coverage_fraction(
        self, site_index: int, k: int, sat_indices=None
    ) -> float:
        """Fraction of the horizon with >= k satellites visible."""
        if self.span_s == 0.0:
            return 0.0
        times, counts = self.visible_count_steps(site_index, sat_indices)
        spans = np.diff(np.concatenate([times, [self.end_s]]))
        return float(spans[counts >= k].sum() / self.span_s)

    def sample_counts(
        self, times_s: np.ndarray, site_index: int, sat_indices=None
    ) -> np.ndarray:
        """Visible-satellite counts at explicit times (grid parity)."""
        times = np.asarray(times_s, dtype=np.float64)
        step_times, counts = self.visible_count_steps(site_index, sat_indices)
        idx = np.searchsorted(step_times, times, side="right") - 1
        return counts[np.maximum(idx, 0)] * (idx >= 0)

    # -- fleet restriction -------------------------------------------------

    def restrict(self, sat_indices) -> "ContactIntervals":
        """A compact copy holding only the given satellite columns.

        The returned object's satellite axis is the *position* within
        ``sat_indices``.  Windows are gathered pair by pair in (site-major,
        given-order) layout with within-pair order preserved, so any
        reduction over the copy is bit-identical to the same reduction over
        the full store with the same satellite list.  Both stores' event
        indexes hold the same events per group (site, or subset
        satellite), time-sorted within each group; they may order only
        events with equal times differently, which changes nothing the
        sweep adds (see :func:`sweep_accumulate`).
        """
        sats = self._sat_array(sat_indices)
        sites = np.arange(self.n_sites, dtype=np.intp)
        pair_ids = (sites[:, None] * self.n_satellites + sats[None, :]).ravel()
        flat, _ = _csr_gather(self.pair_offsets, pair_ids)
        counts = self.pair_offsets[pair_ids + 1] - self.pair_offsets[pair_ids]
        offsets = np.zeros(pair_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return ContactIntervals(
            n_sites=self.n_sites,
            n_satellites=int(sats.size),
            start_s=self.start_s,
            end_s=self.end_s,
            rise_s=np.ascontiguousarray(self.rise_s[flat]),
            set_s=np.ascontiguousarray(self.set_s[flat]),
            truncated_start=np.ascontiguousarray(self.truncated_start[flat]),
            truncated_end=np.ascontiguousarray(self.truncated_end[flat]),
            pair_offsets=offsets,
        )


class IntervalSubsetQuery:
    """Interval-native subset queries over a fleet-restricted CSR.

    The event-sweep twin of
    :class:`repro.sim.kernels.subsets.SubsetQuery`: one
    :meth:`ContactIntervals.restrict` precompute shrinks the window
    structure to the fleet under study, then arbitrary subsets are
    answered from the restricted store's own :class:`EventIndex` by one
    event sweep over just those windows.  Query results are bit-identical to
    calling the full :class:`ContactIntervals` reductions with the same
    pool indices (see :meth:`ContactIntervals.restrict`).

    ``fleet`` is None for a pool-wide query (subset indices are raw pool
    indices, delegated without restriction).
    """

    def __init__(
        self, contacts: "ContactIntervals", fleet: Optional[np.ndarray] = None
    ) -> None:
        self.contacts = contacts
        self.fleet = fleet

    @classmethod
    def from_contacts(cls, contacts, fleet=None) -> "IntervalSubsetQuery":
        from repro.sim.kernels.subsets import as_sorted_fleet

        if fleet is None:
            return cls(contacts, None)
        fleet = as_sorted_fleet(fleet)
        return cls(contacts.restrict(fleet), fleet)

    @property
    def n_sites(self) -> int:
        return self.contacts.n_sites

    @property
    def n_satellites(self) -> int:
        """Satellites held by the precompute (the fleet size)."""
        return self.contacts.n_satellites

    def _local(self, subset):
        """Map pool-index subsets to restricted columns (identity pool-wide)."""
        from repro.sim.kernels.subsets import fleet_positions

        if subset is None or self.fleet is None:
            return subset
        return fleet_positions(self.fleet, subset)

    def coverage_fractions(self, subset=None) -> np.ndarray:
        """Covered fraction per site (S,) for one satellite subset."""
        return self.contacts.coverage_fractions(self._local(subset))

    def satellite_active_fractions(
        self, subset=None, site_indices=None
    ) -> np.ndarray:
        """Active fraction per subset satellite (any selected site visible)."""
        return self.contacts.satellite_active_fractions(
            self._local(subset), site_indices
        )

    def k_coverage_fraction(self, site_index: int, k: int, subset=None) -> float:
        """Fraction of the horizon with >= k subset satellites visible."""
        return self.contacts.k_coverage_fraction(
            site_index, int(k), self._local(subset)
        )


def _edge_visibility(
    propagator: BatchPropagator,
    geometry: "kernels.SiteGeometry",
    site_idx: np.ndarray,
    sat_idx: np.ndarray,
    times: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Exact topocentric visibility test at per-edge (pair, time) points.

    Uncounted (:meth:`BatchPropagator._unit_positions_at`), so refine
    workers may call it; :func:`_refine_windows` counts the evaluations.
    """
    sat_units = propagator._unit_positions_at(sat_idx, times)
    theta = gmst_rad(times, geometry.grid.gmst_at_epoch_rad)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    ux = geometry.unit_ecef[site_idx, 0]
    uy = geometry.unit_ecef[site_idx, 1]
    uz = geometry.unit_ecef[site_idx, 2]
    dots = (
        sat_units[:, 0] * (cos_t * ux - sin_t * uy)
        + sat_units[:, 1] * (sin_t * ux + cos_t * uy)
        + sat_units[:, 2] * uz
    )
    return dots >= thresholds[site_idx, sat_idx]


def _bisect_edges(
    propagator, geometry, thresholds, site_idx, sat_idx, hi, state, step, iters
) -> np.ndarray:
    """Bisect each bracket ``(hi - step, hi]`` through ``iters`` halvings.

    ``state`` is each bracket's old (lo-side) visibility; rises refine
    toward the visible hi side, sets toward the invisible one, so one loop
    handles both.  Returns the new-state end of each final cell.
    """
    hi = hi.copy()
    lo = hi - step
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        vis = _edge_visibility(
            propagator, geometry, site_idx, sat_idx, mid, thresholds
        )
        take_lo = vis == state
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return hi


def _newton_edges(
    propagator, geometry, thresholds, site_idx, sat_idx, hi, state, step
) -> np.ndarray:
    """Estimate each bracket's crossing time on circular-orbit geometry.

    With ``e == 0`` the argument of latitude ``u`` and the Earth-fixed node
    ``phi = raan - gmst`` are linear in time.  Rotating the site by
    ``-phi`` gives ``p = ux cos phi + uy sin phi`` and ``q = uy cos phi -
    ux sin phi``, so ``dot = p cos u + (q cos i + uz sin i) sin u`` and its
    time derivative are closed-form: a Newton step costs four trig calls.
    The steps move the in-bracket offset ``tau = t - lo`` in ``[0, step]``
    from ``u`` and ``phi`` at ``lo``, found and reduced to [-pi, pi] once
    per edge in float64.  All but the last of the ``NEWTON_STEPS`` run in
    float32, where numpy's vectorized cos and sin cost ~1/20 of float64's
    (41 vs 790 us per pair over 16 384 angles on a 2-CPU x86-64 host); the
    last runs in float64 and takes the estimate to float64 resolution.
    Five float32 steps would not do: they tripled the edges that fail the
    check and are bisected.  Each edge starts at its
    bracket's invisible end (lo for rises, hi for sets); every step is
    clipped into the bracket and a non-finite step falls back to its
    midpoint.  This is only the estimate: :func:`_estimate_edges` checks it
    with the exact evaluator.
    """
    epoch = propagator.epoch_s[sat_idx]
    u_rate = propagator._u_rate[sat_idx]
    u_0 = propagator._u0[sat_idx] - u_rate * epoch
    raan_rate = propagator.raan_rate[sat_idx]
    phi_rate = raan_rate - EARTH_ROTATION_RATE
    phi_0 = (
        propagator.raan_rad[sat_idx]
        - raan_rate * epoch
        - geometry.grid.gmst_at_epoch_rad
    )
    cos_i = propagator._cos_i[sat_idx]
    lo = hi - step
    columns = (
        _reduced(u_0 + u_rate * lo),
        _reduced(phi_0 + phi_rate * lo),
        u_rate,
        phi_rate,
        u_rate + phi_rate * cos_i,
        cos_i,
        geometry.unit_ecef[site_idx, 0],
        geometry.unit_ecef[site_idx, 1],
        geometry.unit_ecef[site_idx, 2] * propagator._sin_i[sat_idx],
        thresholds[site_idx, sat_idx],
    )
    del epoch, u_0, raan_rate, phi_0

    def newton_step(tau, top, columns):
        """One clipped step in the precision of ``tau`` and ``columns``."""
        u_lo, phi_lo, u_rate, phi_rate, p_rate, cos_i, ux, uy, uz_sin_i, thr = (
            columns
        )
        u = u_lo + u_rate * tau
        phi = phi_lo + phi_rate * tau
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        del u, phi
        p = ux * cos_p + uy * sin_p
        q = uy * cos_p - ux * sin_p
        del cos_p, sin_p
        r = cos_i * q + uz_sin_i
        f = cos_u * p + sin_u * r - thr
        # d(p, q)/dt = phi_rate * (q, -p), so d(dot)/dt =
        # cos u (u_rate r + phi_rate q) - sin u p (u_rate + phi_rate cos i).
        df = cos_u * (u_rate * r + phi_rate * q) - sin_u * p * p_rate
        tau = tau - f / df
        return np.where(np.isfinite(tau), np.clip(tau, 0, top), top / 2)

    tau = np.where(state, np.float32(step), np.float32(0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        if NEWTON_STEPS > 1:
            columns32 = tuple(column.astype(np.float32) for column in columns)
            for _ in range(NEWTON_STEPS - 1):
                tau = newton_step(tau, np.float32(step), columns32)
            del columns32
        if NEWTON_STEPS > 0:
            tau = newton_step(tau.astype(np.float64), step, columns)
    return lo + tau


def _estimate_edges(
    propagator, geometry, thresholds, site_idx, sat_idx, hi, state, step, iters
) -> Tuple[np.ndarray, np.ndarray, int]:
    """:func:`_bisect_edges`' result, steered by a Newton estimate.

    Replays bisection's float updates with ``mid < t_est`` standing in for
    each visibility test, then checks the final cell exactly: its lo end
    (where it moved) must show the old state and its hi end (where it
    moved) the new one.  Every kept decision comes from the same exact
    evaluator, and a bracket's dyadic cells are disjoint, so a cell that
    passes is the one bisection ends in whenever the state changes once
    inside the bracket, as it does on one flank of a pass.  Returns the
    estimated edges, the sorted indices of the edges that failed the
    check, which the caller must bisect, and the exact evaluations made.

    The lo ends and the hi ends are checked in two evaluator calls, and
    here and in :func:`_newton_edges` each per-edge array is dropped once
    spent.  That holds a batch's peak to ~184 bytes per edge, against 377
    with one call over both ends (tracemalloc, 16 384 edges of the full
    pool), which matters on a refine worker thread: its malloc arena
    keeps that peak resident after the refine (:func:`_refine_windows`).
    """
    t_est = _newton_edges(
        propagator, geometry, thresholds, site_idx, sat_idx, hi, state, step
    )
    lo0 = hi - step
    lo, cell_hi = lo0, hi
    for _ in range(iters):
        mid = 0.5 * (lo + cell_hi)
        take_lo = mid < t_est
        lo = np.where(take_lo, mid, lo)
        cell_hi = np.where(take_lo, cell_hi, mid)
    del t_est, mid, take_lo
    lo_moved = np.flatnonzero(lo != lo0)
    lo_vis = _edge_visibility(
        propagator, geometry, site_idx[lo_moved], sat_idx[lo_moved],
        lo[lo_moved], thresholds,
    )
    del lo, lo0
    hi_moved = np.flatnonzero(cell_hi != hi)
    hi_vis = _edge_visibility(
        propagator, geometry, site_idx[hi_moved], sat_idx[hi_moved],
        cell_hi[hi_moved], thresholds,
    )
    failed = np.union1d(
        lo_moved[lo_vis != state[lo_moved]], hi_moved[hi_vis == state[hi_moved]]
    )
    return cell_hi, failed, int(lo_moved.size + hi_moved.size)


def _refine_windows(
    propagator: BatchPropagator,
    geometry: "kernels.SiteGeometry",
    pair: np.ndarray,
    rise_s: np.ndarray,
    set_s: np.ndarray,
    truncated_start: np.ndarray,
    truncated_end: np.ndarray,
    step: float,
    tolerance_s: float,
    estimate: bool = True,
) -> Tuple[int, int]:
    """Refine every non-truncated edge of CSR windows in place.

    ``rise_s`` / ``set_s`` hold scan-sample edges: each is the hi end of
    its bracket.  Circular pools take :func:`_estimate_edges`; eccentric
    pools, and every edge when ``estimate`` is false, take
    :func:`_bisect_edges` — the reference the estimate path must equal bit
    for bit.

    The edges split into batches of ``REFINE_BATCH // workers``, refined
    on one worker per available CPU (:func:`kernels.run_workers`: worker
    0 is the calling thread, and one CPU runs inline).  Each worker takes
    the next batch when it finishes one, so a worker that gets less CPU
    time on a busy host refines fewer batches instead of holding up the
    join, and each batch writes its own slice of the result.  Workers
    touch no counter: they return their exact evaluations and the calling
    thread counts them.  The estimates that fail their check are
    collected over every batch and bisected together after the workers
    join, on the calling thread, in batches of :data:`REFINE_BATCH`: each
    halving is one :func:`_edge_visibility` call over all of them, not one
    per batch.  Bisection is elementwise, so neither the grouping nor the
    worker count changes an edge.  Returns ``(edges, bisected)``.
    """
    thresholds = geometry.thresholds(propagator)
    n_sats = propagator.count
    iters = max(1, int(math.ceil(math.log2(max(step / tolerance_s, 2.0)))))
    rises = ~truncated_start
    sets = ~truncated_end
    n_rise = int(rises.sum())
    edge_pair = np.concatenate([pair[rises], pair[sets]])
    edge_hi = np.concatenate([rise_s[rises], set_s[sets]])
    lo_state = np.concatenate(
        [np.zeros(n_rise, dtype=bool), np.ones(edge_pair.size - n_rise, dtype=bool)]
    )
    estimate = estimate and propagator.all_circular

    def args(edges):
        return (
            propagator,
            geometry,
            thresholds,
            (edge_pair[edges] // n_sats).astype(np.intp),
            (edge_pair[edges] % n_sats).astype(np.intp),
            edge_hi[edges],
            lo_state[edges],
            step,
            iters,
        )

    workers = kernels._available_cpus()
    batch = max(1, REFINE_BATCH // workers)
    n_batches = -(-edge_pair.size // batch)
    workers = max(1, min(workers, n_batches))
    refined = np.empty(edge_pair.size, dtype=np.float64)
    failures = [np.empty(0, dtype=np.intp)] * n_batches  # One per batch.
    batches = iter(range(n_batches))
    lock = threading.Lock()

    def work(worker: int) -> int:
        """Refine the next batch until none is left; returns the exact
        evaluations made."""
        evaluations = 0
        while True:
            with lock:
                index = next(batches, None)
            if index is None:
                return evaluations
            sl = slice(index * batch, min((index + 1) * batch, edge_pair.size))
            if estimate:
                refined[sl], batch_failed, checks = _estimate_edges(*args(sl))
                failures[index] = batch_failed + sl.start
                evaluations += checks
            else:
                refined[sl] = _bisect_edges(*args(sl))
                evaluations += iters * (sl.stop - sl.start)

    evaluations = sum(kernels.run_workers(work, workers))
    failed = np.concatenate([np.empty(0, dtype=np.intp), *failures])
    for lo_idx in range(0, failed.size, REFINE_BATCH):
        edges = failed[lo_idx : lo_idx + REFINE_BATCH]
        refined[edges] = _bisect_edges(*args(edges))
    _STATE_EVALS.inc(evaluations + iters * int(failed.size))
    rise_s[rises] = refined[:n_rise]
    set_s[sets] = refined[n_rise:]
    return int(edge_pair.size), int(failed.size if estimate else edge_pair.size)


def _bisect_windows(
    propagator: BatchPropagator,
    geometry: "kernels.SiteGeometry",
    coarse: ContactIntervals,
    step: float,
    tolerance_s: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bisect every edge of an unrefined scan (``refine=False``).

    The reference refinement: ``find_contact_intervals`` must return these
    ``(rise_s, set_s)`` bit for bit.
    """
    pair = np.repeat(
        np.arange(coarse.pair_offsets.size - 1), np.diff(coarse.pair_offsets)
    )
    rise_s = coarse.rise_s.copy()
    set_s = coarse.set_s.copy()
    _refine_windows(
        propagator,
        geometry,
        pair,
        rise_s,
        set_s,
        coarse.truncated_start,
        coarse.truncated_end,
        step,
        tolerance_s,
        estimate=False,
    )
    return rise_s, set_s


def find_contact_intervals(
    constellation,
    sites: Sequence[GroundSite],
    grid: TimeGrid,
    *,
    tolerance_s: float = DEFAULT_EDGE_TOLERANCE_S,
    geometry: Optional["kernels.SiteGeometry"] = None,
    chunk_size: Optional[int] = None,
    cull: bool = True,
    refine: bool = True,
) -> ContactIntervals:
    """Find analytic contact windows for every (site, satellite) pair.

    ``grid`` is the *coarse scan* grid: a pass is detected iff at least one
    scan sample falls inside it — exactly the grid engine's detection
    semantics, so running the scan at the grid's own step makes the two
    engines agree on which passes exist.  Each detected edge is then
    refined to ``tolerance_s`` on the continuous geometry (skipped when
    ``refine`` is false: edges stay at scan-sample times).  The refined
    edge is bisection's bit for bit; circular pools reach it from a Newton
    estimate checked by two exact evaluations, and bisect only the edges
    whose check fails (counted in ``sim.intervals.refine_fallbacks``).

    Refined edges keep the resampling identity: the rise lies in
    ``(t_{k-1}, t_k]`` for the first visible sample ``t_k`` (sets
    symmetric), so sampling the result on the scan grid reproduces the
    grid-engine masks bit-for-bit.

    Raises:
        ValueError: If ``tolerance_s`` is not a positive finite number.
    """
    from repro.sim.visibility import _as_propagator

    if not (math.isfinite(tolerance_s) and tolerance_s > 0.0):
        raise ValueError(
            f"tolerance_s must be a positive finite number, got {tolerance_s!r}"
        )
    propagator = _as_propagator(constellation)
    if geometry is None:
        geometry = kernels.SiteGeometry(sites, grid)
    plan = kernels.plan_stream(
        propagator, geometry, grid, chunk_size=chunk_size, cull=cull
    )
    n_sites = plan.n_sites
    n_sats = plan.n_satellites
    step = grid.step_s
    start_s = grid.start_s
    total = grid.count
    end_s = start_s + step * total

    # -- stage 1: coarse scan for state transitions -----------------------
    trans_pair: List[np.ndarray] = []
    trans_k: List[np.ndarray] = []
    trans_rising: List[np.ndarray] = []
    first_state: Optional[np.ndarray] = None
    prev_col: Optional[np.ndarray] = None
    pairs = n_sites * n_sats
    with span("intervals.scan"):
        for offset, slab in kernels.iter_slabs(plan):
            # One (S*N,) plane per sample: a view of a time-major slab, a
            # copy of a C-ordered one; contiguous either way.
            planes = slab.transpose(2, 0, 1).reshape(slab.shape[2], pairs)
            if prev_col is None:
                first_state = planes[0].copy()
            else:
                b_pair = np.flatnonzero(prev_col != planes[0])
                if b_pair.size:
                    trans_pair.append(b_pair)
                    trans_k.append(np.full(b_pair.size, offset, dtype=np.int64))
                    trans_rising.append(planes[0, b_pair])
            if planes.shape[0] > 1:
                # Shifted by one plane: the flat index of each change's
                # new-state sample, so no index array is copied.
                flat = np.flatnonzero(planes[1:] != planes[:-1])
                if flat.size:
                    flat += pairs
                    trans_rising.append(planes.reshape(-1)[flat])
                    d_k, d_pair = np.divmod(flat, pairs)
                    del flat
                    d_k += offset
                    trans_pair.append(d_pair)
                    trans_k.append(d_k)
            prev_col = planes[-1].copy()

    if first_state is None:  # zero-sample grid cannot occur (TimeGrid >= 1)
        first_state = np.zeros(pairs, dtype=bool)
        prev_col = first_state

    if trans_pair:
        t_pair = np.concatenate(trans_pair)
        t_k = np.concatenate(trans_k)
        t_rising = np.concatenate(trans_rising)
        # The per-slab fragments are no longer needed; at megaconstellation
        # scale they hold tens of MB that would otherwise stay alive
        # through refinement.
        trans_pair.clear()
        trans_k.clear()
        trans_rising.clear()
    else:
        t_pair = np.empty(0, dtype=np.int64)
        t_k = np.empty(0, dtype=np.int64)
        t_rising = np.empty(0, dtype=bool)
    _SCAN_TRANSITIONS.inc(int(t_pair.size))

    # Implicit edges at the horizon: visible at the first sample means the
    # window is already open (truncated start); visible at the last sample
    # means it never closed (truncated end, clipped at the horizon).
    open_pairs = np.flatnonzero(first_state).astype(np.int64)
    still_open = np.flatnonzero(prev_col).astype(np.int64)

    rise_pair = np.concatenate([open_pairs, t_pair[t_rising]])
    rise_k = np.concatenate(
        [np.zeros(open_pairs.size, dtype=np.int64), t_k[t_rising]]
    )
    rise_trunc = np.concatenate(
        [np.ones(open_pairs.size, dtype=bool),
         np.zeros(int(t_rising.sum()), dtype=bool)]
    )
    falling = ~t_rising
    set_pair = np.concatenate([t_pair[falling], still_open])
    set_k = np.concatenate(
        [t_k[falling], np.full(still_open.size, total, dtype=np.int64)]
    )
    set_trunc = np.concatenate(
        [np.zeros(int(falling.sum()), dtype=bool),
         np.ones(still_open.size, dtype=bool)]
    )
    del t_pair, t_k, t_rising, falling

    order = np.lexsort((rise_k, rise_pair))
    rise_pair, rise_k, rise_trunc = (
        rise_pair[order], rise_k[order], rise_trunc[order]
    )
    order = np.lexsort((set_k, set_pair))
    set_pair, set_k, set_trunc = set_pair[order], set_k[order], set_trunc[order]
    if not np.array_equal(rise_pair, set_pair):  # pragma: no cover - invariant
        raise AssertionError("rise/set pairing broke: unbalanced transitions")

    # -- stage 2: refinement of real crossings ---------------------------
    rise_s = start_s + step * rise_k.astype(np.float64)
    set_s = start_s + step * set_k.astype(np.float64)
    if refine and rise_pair.size:
        with span("intervals.refine"):
            edges, bisected = _refine_windows(
                propagator,
                geometry,
                rise_pair,
                rise_s,
                set_s,
                rise_trunc,
                set_trunc,
                step,
                tolerance_s,
            )
            # The refine's edge arrays are freed only now, after the
            # runner's own trim: hand their pages back too.
            kernels._trim_heap()
        _EDGES_REFINED.inc(edges)
        _REFINE_FALLBACKS.inc(bisected)

    counts = np.bincount(rise_pair, minlength=n_sites * n_sats)
    pair_offsets = np.zeros(n_sites * n_sats + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_offsets[1:])
    _CONTACTS_FOUND.inc(int(rise_pair.size))
    return ContactIntervals(
        n_sites=n_sites,
        n_satellites=n_sats,
        start_s=start_s,
        end_s=end_s,
        rise_s=rise_s,
        set_s=set_s,
        truncated_start=rise_trunc,
        truncated_end=set_trunc,
        pair_offsets=pair_offsets,
    )


__all__ = (
    "DEFAULT_EDGE_TOLERANCE_S",
    "ContactIntervals",
    "IntervalSet",
    "EventIndex",
    "find_contact_intervals",
    "sweep_accumulate",
)
