"""Differential oracle cross-checks: fast paths vs slow-but-exact references.

Three cross-checks, each pitting an optimized implementation the figures
depend on against an independent formulation of the same physics:

* :func:`check_propagator_agreement` — the vectorized
  :class:`~repro.orbits.propagator.BatchPropagator` (including its
  circular fast path) against the scalar
  :class:`~repro.orbits.propagator.J2Propagator`, position-by-position
  over randomized element sets.
* :func:`check_visibility_oracle` — the spherical-geometry cos-threshold
  shortcut of :class:`~repro.sim.visibility.VisibilityEngine` against the
  exact topocentric elevation of :func:`repro.orbits.topocentric.
  elevation_deg`, with a quantified edge-disagreement budget: the two
  formulations are algebraically equivalent, so any disagreement must sit
  on a contact edge (a floating-point tie at the threshold crossing) and
  span at most ``edge_budget_steps`` samples.
* :func:`check_packed_agreement` — every reduction of
  :class:`~repro.sim.visibility.PackedVisibility` (site masks, coverage
  fractions, satellite activity, with and without satellite/site subset
  restrictions, and the batched ``(runs, k)`` coverage and withdrawal
  queries row by row) against plain boolean reductions of the unpacked
  tensor.
  Bit packing is lossless, so agreement is exact, not approximate.
* :func:`check_fused_agreement` — the streaming kernels of
  :mod:`repro.sim.kernels` (float32 screen with exact near-threshold
  decisions, chunked slabs, geometric pair culling, cached site tracks)
  against reductions of the exact unscreened, unculled float64 tensor,
  bit-exact across chunk sizes; the population is rigged so the cull
  genuinely fires and a sample sits on its threshold.
* :func:`check_interval_agreement` — the analytic contact-interval engine
  of :mod:`repro.sim.intervals` against the dense grid engine: resampling
  the refined (rise, set) windows at the grid instants must reproduce the
  grid masks bit for bit (the coarse scan *is* the grid kernel, and
  refinement is clamped to the bracketing step), while continuous-measure
  reductions (coverage fractions, gap lengths) must agree within the
  quantified budget of one time step per refined contact edge.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.ground.sites import GroundSite
from repro.obs import get_logger, metrics
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import eci_to_ecef, gmst_rad
from repro.orbits.propagator import BatchPropagator, J2Propagator
from repro.orbits.topocentric import elevation_deg
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.visibility import (
    VisibilityEngine,
    packed_visibility,
)
from repro.validate import gen
from repro.validate.result import CheckResult, failed, passed

_LOG = get_logger(__name__)


def check_propagator_agreement(
    seed: int,
    n_satellites: int = 16,
    duration_s: float = 86_400.0,
    step_s: float = 1_800.0,
    max_eccentricity: float = gen.MAX_DOMAIN_ECCENTRICITY,
    max_error_m: float = 1.0,
) -> CheckResult:
    """Scalar-vs-batch propagator state agreement on random element sets.

    Propagates the same randomized elements through both implementations
    over ``duration_s`` (default: the 24 h acceptance horizon) and fails if
    any position differs by ``max_error_m`` or more.  Two batches run: an
    all-circular one (pinning the batch fast path, which skips the Kepler
    solve entirely) and a mixed circular/eccentric one (pinning the general
    path against the scalar reference).
    """
    times = TimeGrid(duration_s=duration_s, step_s=step_s).times_s
    worst_error_m = 0.0
    worst_batch = None
    for batch_name, eccentricity_ceiling in (
        ("circular", 0.0),
        ("mixed", max_eccentricity),
    ):
        rng = gen.trial_rng(seed, 1, 0 if eccentricity_ceiling == 0.0 else 1)
        elements = gen.random_elements(rng, n_satellites, eccentricity_ceiling)
        batch_positions = BatchPropagator(elements).positions_eci(times)
        scalar_positions = np.empty_like(batch_positions)
        for sat, element in enumerate(elements):
            propagator = J2Propagator(element)
            for t, time_s in enumerate(times):
                scalar_positions[sat, t] = propagator.position_eci(time_s)
        error_m = float(
            np.linalg.norm(batch_positions - scalar_positions, axis=-1).max()
        )
        if error_m > worst_error_m:
            worst_error_m, worst_batch = error_m, batch_name
    details = {
        "satellites": n_satellites,
        "times": int(times.size),
        "duration_s": duration_s,
        "max_error_m": worst_error_m,
        "threshold_m": max_error_m,
        "worst_batch": worst_batch,
    }
    if worst_error_m < max_error_m:
        return passed("oracle.propagator", **details)
    return failed("oracle.propagator", **details)


def _max_run_length(mask: np.ndarray) -> int:
    """Longest run of consecutive True along the last axis, over all rows."""
    if not mask.any():
        return 0
    run = np.zeros(mask.shape[:-1], dtype=np.int64)
    longest = 0
    for t in range(mask.shape[-1]):
        run = np.where(mask[..., t], run + 1, 0)
        longest = max(longest, int(run.max()))
    return longest


def _edge_adjacent(*masks: np.ndarray) -> np.ndarray:
    """Samples adjacent to a transition in any of the given boolean masks.

    A sample t is edge-adjacent when some mask changes value between t-1
    and t or between t and t+1; the first and last grid samples are always
    edge-adjacent (a contact truncated by the horizon has its edge outside
    the grid).
    """
    shape = masks[0].shape
    near = np.zeros(shape, dtype=bool)
    for mask in masks:
        transitions = mask[..., :-1] != mask[..., 1:]
        near[..., :-1] |= transitions
        near[..., 1:] |= transitions
    near[..., 0] = True
    near[..., -1] = True
    return near


def check_visibility_oracle(
    seed: int,
    n_satellites: int = 24,
    n_sites: int = 6,
    duration_s: float = 21_600.0,
    step_s: float = 60.0,
    edge_budget_steps: int = 1,
    sites: Optional[Sequence] = None,
    elements: Optional[Sequence] = None,
) -> CheckResult:
    """Exact topocentric elevation vs the cos-threshold visibility shortcut.

    Both formulations are exact on the same spherical geometry (the
    threshold identity ``el >= mask  <=>  dot(unit_site, unit_sat) >=
    cos(psi)`` is an algebraic rewrite, and for the circular orbits used
    here the shortcut's semi-major-axis radius equals the true radius), so
    they may only disagree where floating-point rounding breaks a tie at
    the threshold — i.e. exactly at a contact edge.  The check therefore
    asserts two things about the disagreement set:

    * every disagreeing sample is adjacent to a visibility transition in
      one of the two masks (no interior disagreement ever), and
    * no edge contributes more than ``edge_budget_steps`` consecutive
      disagreeing samples (the budget is in units of the time step: a
      tie can shift a contact boundary by at most one sampling instant
      per step of budget).
    """
    rng = gen.trial_rng(seed, 2)
    if elements is None:
        elements = gen.random_elements(rng, n_satellites, max_eccentricity=0.0)
    if sites is None:
        sites = gen.random_sites(rng, n_sites)
    grid = TimeGrid(duration_s=duration_s, step_s=step_s)
    propagator = BatchPropagator(list(elements))

    shortcut = VisibilityEngine(grid).visibility(propagator, list(sites))

    theta = gmst_rad(grid.times_s, grid.gmst_at_epoch_rad)
    sat_ecef = eci_to_ecef(propagator.positions_eci(grid.times_s), theta)
    exact = np.empty_like(shortcut)
    for s, site in enumerate(sites):
        elevations = elevation_deg(site.position_ecef, sat_ecef)  # (N, T)
        exact[s] = elevations >= site.min_elevation_deg

    disagree = shortcut ^ exact
    interior = disagree & ~_edge_adjacent(exact, shortcut)
    longest_run = _max_run_length(disagree)
    details = {
        "sites": len(sites),
        "satellites": propagator.count,
        "samples": int(grid.count),
        "step_s": step_s,
        "disagreeing_samples": int(disagree.sum()),
        "interior_disagreements": int(interior.sum()),
        "max_disagreement_run_steps": longest_run,
        "edge_budget_steps": edge_budget_steps,
    }
    if interior.any() or longest_run > edge_budget_steps:
        return failed("oracle.visibility", **details)
    return passed("oracle.visibility", **details)


def _unpacked_reductions_match(
    packed, visible: np.ndarray, sat_indices, site_indices
) -> List[str]:
    """Compare every PackedVisibility reduction against boolean reductions.

    Returns a list of mismatch descriptions (empty = exact agreement).
    ``visible`` is the unpacked (S, N, T) boolean tensor the packed form
    was built from.
    """
    mismatches: List[str] = []
    # The packed methods get the selections verbatim (including plain empty
    # lists) to exercise their own index normalization; the numpy reference
    # indexing below needs an integer dtype for empty selections.
    sat_ref = None if sat_indices is None else np.asarray(sat_indices, dtype=np.intp)
    site_ref = (
        None if site_indices is None else np.asarray(site_indices, dtype=np.intp)
    )
    subset = visible if sat_ref is None else visible[:, sat_ref, :]
    restricted = subset if site_ref is None else subset[site_ref]

    # Per-site union masks and coverage fractions under the satellite subset.
    expect_site_masks = subset.any(axis=1)
    if not np.array_equal(packed.site_masks(sat_indices), expect_site_masks):
        mismatches.append("site_masks")
    for site in range(visible.shape[0]):
        if not np.array_equal(
            packed.site_mask(site, sat_indices), expect_site_masks[site]
        ):
            mismatches.append(f"site_mask[{site}]")
    if not np.array_equal(
        packed.coverage_fractions(sat_indices),
        expect_site_masks.mean(axis=1) if expect_site_masks.size
        else np.zeros(visible.shape[0]),
    ):
        mismatches.append("coverage_fractions")

    # Per-satellite activity under both subset axes.
    n_subset = restricted.shape[1]
    if restricted.shape[0] == 0 or n_subset == 0:
        expect_sat_masks = np.zeros((n_subset, visible.shape[2]), dtype=bool)
    else:
        expect_sat_masks = restricted.any(axis=0)
    if not np.array_equal(
        packed.satellite_masks(sat_indices, site_indices), expect_sat_masks
    ):
        mismatches.append("satellite_masks")
    if not np.array_equal(
        packed.satellite_active_fractions(sat_indices, site_indices),
        expect_sat_masks.mean(axis=1) if expect_sat_masks.size
        else np.zeros(n_subset),
    ):
        mismatches.append("satellite_active_fractions")

    # Withdrawal coverage of the satellite subset (it ignores the sites, so
    # once per subset), reversed so the order is unsorted: the whole order
    # and its kept tail, from one query.
    if site_indices is None:
        order = (np.arange(visible.shape[1]) if sat_ref is None else sat_ref)[::-1]
        for withdrawn in sorted({0, order.size // 2, order.size}):
            expect = [
                part.any(axis=1).mean(axis=1) if part.shape[1]
                else np.zeros(visible.shape[0])
                for part in (visible[:, order], visible[:, order[withdrawn:]])
            ]
            got = packed.withdrawal_coverage(order, withdrawn)
            if not all(map(np.array_equal, got, expect)):
                mismatches.append(f"withdrawal_coverage[withdrawn={withdrawn}]")
    return mismatches


def _batched_reductions_match(
    packed, visible: np.ndarray, orders: np.ndarray
) -> List[str]:
    """Names of batched queries whose row *i* disagrees with the boolean
    reduction of ``orders[i]``.

    ``orders`` is a ``(runs, k)`` matrix: ``coverage_fractions`` answers
    with one row per order, ``withdrawal_coverage`` with one row per
    order and per part (whole order, kept tail).
    """

    def expected(sats: np.ndarray) -> np.ndarray:
        if sats.size == 0:
            return np.zeros(visible.shape[0])
        return visible[:, sats].any(axis=1).mean(axis=1)

    mismatches = []
    covered = packed.coverage_fractions(orders)
    for index, order in enumerate(orders):
        if not np.array_equal(covered[index], expected(order)):
            mismatches.append(f"coverage_fractions[row={index}]")
    k = orders.shape[1]
    for withdrawn in sorted({0, k // 2, k}):
        base, kept = packed.withdrawal_coverage(orders, withdrawn)
        for index, order in enumerate(orders):
            if not (
                np.array_equal(base[index], expected(order))
                and np.array_equal(kept[index], expected(order[withdrawn:]))
            ):
                mismatches.append(
                    f"withdrawal_coverage[withdrawn={withdrawn}, row={index}]"
                )
    return mismatches


def check_packed_agreement(
    seed: int,
    n_satellites: int = 40,
    n_sites: int = 7,
    duration_s: float = 10_800.0,
    step_s: float = 60.0,
    n_subsets: int = 8,
) -> CheckResult:
    """Packed vs unpacked boolean reductions, exact equality.

    Builds one boolean visibility tensor and its bit-packed twin, then
    replays every reduction the experiments use — full pool, random
    satellite subsets, random site restrictions, empty and singleton
    selections — demanding bit-exact agreement.  Deliberately includes a
    non-multiple-of-8 sample count so the byte-padding path is always
    exercised.
    """
    rng = gen.trial_rng(seed, 3)
    elements = gen.random_elements(rng, n_satellites, max_eccentricity=0.0)
    sites = gen.random_sites(rng, n_sites)
    count = int(duration_s // step_s)
    if count % 8 == 0:
        count += 3  # Force padding bits into every packed row.
    grid = TimeGrid(duration_s=count * step_s, step_s=step_s)

    engine = VisibilityEngine(grid)
    visible = engine.visibility(elements, sites)  # (S, N, T) bool
    packed = packed_visibility(elements, sites, grid)

    selections = [(None, None), (None, []), ([], None), ([], [])]
    for _ in range(n_subsets):
        sat_size = int(rng.integers(1, n_satellites + 1))
        site_size = int(rng.integers(1, n_sites + 1))
        sat_subset = rng.choice(n_satellites, size=sat_size, replace=False)
        site_subset = rng.choice(n_sites, size=site_size, replace=False)
        selections.append((sat_subset, None))
        selections.append((sat_subset, site_subset))
        selections.append((None, site_subset))

    mismatched: List[str] = []
    for sat_indices, site_indices in selections:
        for name in _unpacked_reductions_match(
            packed, visible, sat_indices, site_indices
        ):
            sat_count = "all" if sat_indices is None else len(sat_indices)
            site_count = "all" if site_indices is None else len(site_indices)
            mismatched.append(f"{name} (sats={sat_count}, sites={site_count})")

    # The batched form: one random order per row, every row checked.
    orders = np.stack([
        rng.permutation(n_satellites)[: max(n_satellites // 2, 1)]
        for _ in range(n_subsets)
    ])
    mismatched.extend(
        f"batched {name}" for name in _batched_reductions_match(packed, visible, orders)
    )

    details = {
        "sites": n_sites,
        "satellites": n_satellites,
        "samples": int(grid.count),
        "selections": len(selections),
        "batched_rows": int(orders.shape[0]),
        "mismatches": mismatched,
    }
    if mismatched:
        return failed("oracle.packed", **details)
    return passed("oracle.packed", **details)


def _near_threshold_site(
    propagator: BatchPropagator, grid: TimeGrid, rng: np.random.Generator
) -> GroundSite:
    """A site that sees one satellite at one grid sample exactly at its mask.

    Picks a (satellite, sample) whose sub-satellite point lies between 40
    and 75 deg of latitude, places the site 2 deg poleward of it, and sets
    the site's elevation mask to the satellite's elevation there (in the
    spherical geometry of the cos thresholds).  The pair's exact dot then
    equals its threshold up to rounding: a sample deep inside the float32
    screen's band, which only the exact float64 path can decide.  The
    latitude keeps the site away from the low-inclination block the cull
    must still drop.
    """
    times = grid.times_s
    units = propagator.unit_positions_eci(times)  # (N, T, 3)
    latitude = np.degrees(np.arcsin(np.clip(units[..., 2], -1.0, 1.0)))
    sats, samples = np.nonzero((np.abs(latitude) >= 40.0) & (np.abs(latitude) <= 75.0))
    sat, sample = 0, 0  # No such point: the check's recheck count tells.
    if sats.size:
        pick = int(rng.integers(sats.size))
        sat, sample = int(sats[pick]), int(samples[pick])
    ecef = eci_to_ecef(
        units[sat, sample], gmst_rad(times[sample], grid.gmst_at_epoch_rad)
    )
    site_latitude = latitude[sat, sample]
    site = GroundSite(
        name="near-threshold",
        latitude_deg=float(site_latitude + np.copysign(2.0, site_latitude)),
        longitude_deg=float(np.degrees(np.arctan2(ecef[1], ecef[0]))),
    )
    geometry = kernels.SiteGeometry([site], grid)
    cos_psi = kernels.exact_dots(
        units[sat, sample], geometry.units_eci(times[sample : sample + 1])[0, 0]
    )
    radius = propagator.semi_major_axis_m[sat]
    elevation = np.arctan2(
        radius * cos_psi - geometry.radii_m[0],
        radius * np.sqrt(1.0 - cos_psi**2),
    )
    return dataclasses.replace(site, min_elevation_deg=float(np.degrees(elevation)))


def check_fused_agreement(
    seed: int,
    n_satellites: int = 28,
    n_sites: int = 5,
    duration_s: float = 10_800.0,
    step_s: float = 60.0,
    chunk_sizes: Sequence[int] = (1, 13, 64, 1_000_000),
) -> CheckResult:
    """Streaming (screened, culled) kernels vs the exact unculled reference.

    Builds a random circular population *plus* a guaranteed-cullable block —
    a ~79 deg-latitude site that a handful of injected low-inclination
    satellites can never reach — and a site whose elevation mask puts one
    pair-sample on its threshold (:func:`_near_threshold_site`).  Demands
    bit-exact agreement of every streaming reduction (site coverage,
    satellite activity, visible counts, packed bits) with reductions of
    :func:`~repro.sim.kernels.exact_visibility`: float64 directions,
    :func:`~repro.sim.kernels.exact_dots`, no screen, no cull.  Sweeps chunk
    sizes across the degenerate corners (one sample per slab, a prime, the
    default, and larger than the grid) and repeats the sweep with the site
    track primed, pinning the cached ECI-track slicing path the experiment
    contexts use.  Fails outright if the cull never fired or no sample took
    the exact path — a check that stops exercising either is a broken
    check, not a passing one.
    """
    rng = gen.trial_rng(seed, 4)
    elements = list(gen.random_elements(rng, n_satellites, max_eccentricity=0.0))
    for _ in range(4):
        elements.append(
            OrbitalElements.from_degrees(
                altitude_km=550.0,
                inclination_deg=6.0,
                raan_deg=float(rng.uniform(0.0, 360.0)),
                mean_anomaly_deg=float(rng.uniform(0.0, 360.0)),
            )
        )
    # Latitudes bounded away from the equator: every satellite ground
    # track crosses the equator, so a near-equatorial site can reach ANY
    # shell and a single one would keep the injected 6 deg satellites
    # alive at satellite level.  |lat| >= 35 deg with masks >= 15 deg
    # leaves a worst-case 29 deg latitude gap against a <= 12.3 deg
    # footprint half-angle — the whole-satellite skip is guaranteed to
    # fire for every random draw.  (Fully random sites remain covered by
    # oracle.visibility; this oracle pins streaming/culling identity.)
    sites = [
        GroundSite(
            name=f"fused-site-{index}",
            latitude_deg=float(rng.choice([-1.0, 1.0]) * rng.uniform(35.0, 85.0)),
            longitude_deg=float(rng.uniform(-180.0, 180.0)),
            altitude_m=0.0,
            min_elevation_deg=float(rng.uniform(15.0, 40.0)),
        )
        for index in range(n_sites)
    ]
    sites.append(
        GroundSite(
            name="cull-polar",
            latitude_deg=79.0,
            longitude_deg=float(rng.uniform(-180.0, 180.0)),
            min_elevation_deg=25.0,
        )
    )
    count = int(duration_s // step_s)
    if count % 8 == 0:
        count += 3  # Keep the packed byte-padding path in play.
    grid = TimeGrid(duration_s=count * step_s, step_s=step_s)

    propagator = BatchPropagator(elements)
    sites.append(_near_threshold_site(propagator, grid, rng))
    reference = kernels.exact_visibility(propagator, kernels.SiteGeometry(sites, grid))
    expect_coverage = reference.any(axis=1)
    expect_activity = reference.any(axis=0)
    expect_counts = reference.sum(axis=1)
    expect_packed = np.packbits(reference, axis=2)

    rechecks = metrics.counter("sim.kernels.exact_rechecks")
    rechecks_before = rechecks.value
    mismatched: List[str] = []
    culled_pairs = 0
    culled_satellites = 0
    for primed in (False, True):
        geometry = kernels.SiteGeometry(sites, grid)
        if primed:
            geometry.prime_track()
        for chunk in chunk_sizes:
            plan = kernels.plan_stream(propagator, geometry, grid, chunk_size=chunk)
            culled_pairs = plan.culled_pairs
            culled_satellites = plan.culled_satellites
            label = f"chunk={chunk}, primed={primed}"
            if not np.array_equal(
                kernels.stream_site_coverage(plan), expect_coverage
            ):
                mismatched.append(f"site_coverage ({label})")
            if not np.array_equal(
                kernels.stream_satellite_activity(
                    kernels.plan_stream(propagator, geometry, grid, chunk_size=chunk)
                ),
                expect_activity,
            ):
                mismatched.append(f"satellite_activity ({label})")
            if not np.array_equal(
                kernels.stream_visible_counts(
                    kernels.plan_stream(propagator, geometry, grid, chunk_size=chunk)
                ),
                expect_counts,
            ):
                mismatched.append(f"visible_counts ({label})")
            if not np.array_equal(
                packed_visibility(
                    propagator, sites, grid, chunk_size=chunk, geometry=geometry
                ).packed,
                expect_packed,
            ):
                mismatched.append(f"packed_bits ({label})")
    exact_rechecks = int(rechecks.value - rechecks_before)
    if not culled_pairs or not culled_satellites:
        mismatched.append(
            f"cull never fired (pairs={culled_pairs}, "
            f"satellites={culled_satellites})"
        )
    if not exact_rechecks:
        mismatched.append("no sample took the exact path")

    details = {
        "sites": len(sites),
        "satellites": propagator.count,
        "samples": int(grid.count),
        "chunk_sizes": list(chunk_sizes),
        "culled_pairs": culled_pairs,
        "culled_satellites": culled_satellites,
        "exact_rechecks": exact_rechecks,
        "mismatches": mismatched,
    }
    if mismatched:
        return failed("oracle.fused", **details)
    return passed("oracle.fused", **details)


def check_interval_agreement(
    seed: int,
    n_satellites: int = 16,
    n_sites: int = 5,
    duration_s: float = 14_400.0,
    step_s: float = 120.0,
    tolerance_s: float = 0.01,
) -> CheckResult:
    """Analytic contact intervals vs the dense grid engine.

    The interval engine's coarse scan *is* the grid kernel and each refined
    edge is clamped to its bracketing scan step, so two classes of agreement
    are checkable, one exact and one budgeted:

    * **bit-exact where both engines sample the same instants** — for every
      (site, satellite) pair, resampling the refined windows at the grid
      times must reproduce the grid mask bit for bit; per-pair contact
      (run) counts, per-site union masks, and per-site visible-satellite
      counts must match exactly;
    * **budgeted on continuous measures** — coverage fractions may differ
      by at most one time step per refined contact edge (two edges per
      window), and each coverage gap by at most ``2 * step_s``, because a
      refined edge moves at most one step away from its scan sample while
      staying inside the bracketing interval.

    Runs an all-circular batch (the propagator fast path the refinement
    evaluator also takes) and a mixed-eccentricity batch (the Kepler-solve
    path).  Fails outright if no contact was ever found — a vacuously
    green comparison is a broken check.

    Every refined edge must also equal plain bisection's bit for bit: the
    circular batch's edges come from the Newton-steered refinement (which
    must keep at least one estimate, or the comparison is vacuous), the
    eccentric batch's from bisection itself.

    Each satellite's active fraction (any site sees it, the reduction
    Fig. 3 reads on the intervals engine) must match the grid's sampled
    mean within the same two-edges-per-window budget, summed over the
    satellite's windows at every site.
    """
    from repro.sim.coverage import gap_lengths_s
    from repro.sim.intervals import (
        _REFINE_FALLBACKS,
        _bisect_windows,
        find_contact_intervals,
    )

    mismatches: List[str] = []
    total_contacts = 0
    samples = 0
    refine_identity_edges = 0
    refine_fallbacks = 0
    for batch_name, eccentricity_ceiling in (
        ("circular", 0.0),
        ("eccentric", gen.MAX_DOMAIN_ECCENTRICITY),
    ):
        rng = gen.trial_rng(seed, 5, 0 if eccentricity_ceiling == 0.0 else 1)
        elements = list(
            gen.random_elements(rng, n_satellites, eccentricity_ceiling)
        )
        sites = gen.random_sites(rng, n_sites)
        grid = TimeGrid(duration_s=duration_s, step_s=step_s)
        propagator = BatchPropagator(elements)
        reference = VisibilityEngine(grid).visibility(propagator, list(sites))
        geometry = kernels.SiteGeometry(list(sites), grid)
        fallbacks_before = _REFINE_FALLBACKS.value
        contacts = find_contact_intervals(
            propagator,
            list(sites),
            grid,
            tolerance_s=tolerance_s,
            geometry=geometry,
        )
        fallbacks = int(_REFINE_FALLBACKS.value - fallbacks_before)
        total_contacts += contacts.n_contacts

        # Refinement identity: every edge equals plain bisection's.
        coarse = find_contact_intervals(
            propagator, list(sites), grid, geometry=geometry, refine=False
        )
        rise_s, set_s = _bisect_windows(
            propagator, geometry, coarse, step_s, tolerance_s
        )
        edges = int(
            np.count_nonzero(~coarse.truncated_start)
            + np.count_nonzero(~coarse.truncated_end)
        )
        differing = int(
            np.count_nonzero(contacts.rise_s != rise_s)
            + np.count_nonzero(contacts.set_s != set_s)
        )
        if differing:
            mismatches.append(
                f"refine_identity ({batch_name}): {differing} of {edges} "
                "edges differ from bisection"
            )
        if batch_name == "circular" and edges and fallbacks == edges:
            mismatches.append(
                "refine_identity (circular): no edge kept its estimate"
            )
        refine_identity_edges += edges
        refine_fallbacks += fallbacks
        samples = int(grid.count)
        times = grid.times_s
        span_total = contacts.span_s

        for s in range(len(sites)):
            for n in range(len(elements)):
                mask = reference[s, n]
                pair = contacts.pair(s, n)
                label = f"{batch_name}, site={s}, sat={n}"
                if not np.array_equal(pair.sample(times), mask):
                    mismatches.append(f"pair_resample ({label})")
                runs = int(mask[0]) + int(
                    np.count_nonzero(~mask[:-1] & mask[1:])
                )
                if contacts.pair_count(s, n) != runs:
                    mismatches.append(
                        f"contact_count ({label}): "
                        f"{contacts.pair_count(s, n)} != {runs}"
                    )
                budget = 2.0 * pair.count * step_s / span_total
                drift = abs(pair.coverage_fraction - float(mask.mean()))
                if drift > budget:
                    mismatches.append(
                        f"pair_coverage ({label}): |{drift:.3e}| > {budget:.3e}"
                    )

            site_mask = reference[s].any(axis=0)
            union = contacts.site_union(s)
            label = f"{batch_name}, site={s}"
            if not np.array_equal(union.sample(times), site_mask):
                mismatches.append(f"union_resample ({label})")
            if not np.array_equal(
                contacts.sample_counts(times, s), reference[s].sum(axis=0)
            ):
                mismatches.append(f"visible_counts ({label})")
            # Gap correspondence.  An interval gap containing >= 1 grid
            # sample matches a grid gap one-to-one (in temporal order, by
            # the resampling identity); a sample-free gap is a sub-step
            # hand-off hole the grid cannot represent and must be shorter
            # than the two-edge budget.
            grid_gaps = gap_lengths_s(site_mask, step_s)
            holes = union.complement()
            sampled = (
                np.searchsorted(times, holes.stops, side="left")
                - np.searchsorted(times, holes.starts, side="left")
            )
            lengths = holes.durations_s()
            visible_gaps = lengths[sampled > 0]
            micro_gaps = lengths[sampled == 0]
            if visible_gaps.size != grid_gaps.size:
                mismatches.append(
                    f"gap_count ({label}): "
                    f"{visible_gaps.size} != {grid_gaps.size}"
                )
            elif grid_gaps.size and (
                np.abs(visible_gaps - grid_gaps).max() > 2.0 * step_s
            ):
                mismatches.append(
                    f"gap_lengths ({label}): worst drift "
                    f"{np.abs(visible_gaps - grid_gaps).max():.2f} s "
                    f"> {2.0 * step_s:.2f} s"
                )
            if micro_gaps.size and micro_gaps.max() >= 2.0 * step_s:
                mismatches.append(
                    f"micro_gaps ({label}): sample-free gap of "
                    f"{micro_gaps.max():.2f} s >= {2.0 * step_s:.2f} s"
                )

        # Satellite activity: continuous-time unions vs sampled means,
        # within the two-edges-per-window budget per satellite.
        windows_per_sat = (
            np.diff(contacts.pair_offsets)
            .reshape(len(sites), len(elements))
            .sum(axis=0)
        )
        active_budget = 2.0 * windows_per_sat * step_s / span_total
        active_drift = np.abs(
            contacts.satellite_active_fractions()
            - reference.any(axis=0).mean(axis=1)
        )
        if np.any(active_drift > active_budget):
            mismatches.append(
                f"satellite_active ({batch_name}): worst drift "
                f"{active_drift.max():.3e} over budget"
            )

    if total_contacts == 0:
        mismatches.append("no contacts found: the comparison is vacuous")

    details = {
        "sites": n_sites,
        "satellites": n_satellites,
        "samples": samples,
        "step_s": step_s,
        "tolerance_s": tolerance_s,
        "contacts": total_contacts,
        "refine_identity_edges": refine_identity_edges,
        "refine_fallbacks": refine_fallbacks,
        "mismatches": mismatches,
    }
    if mismatches:
        return failed("oracle.intervals", **details)
    return passed("oracle.intervals", **details)
