"""Tests for the analytic contact-interval engine and its interval algebra."""

import concurrent.futures
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.constellation.walker import walker_delta
from repro.ground.sites import GroundSite
from repro.obs import metrics
from repro.orbits.elements import OrbitalElements
from repro.orbits.propagator import BatchPropagator
from repro.sim import intervals as intervals_module
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.events import intervals_from_mask
from repro.sim.intervals import (
    DEFAULT_EDGE_TOLERANCE_S,
    ContactIntervals,
    IntervalSet,
    IntervalSubsetQuery,
    _EDGES_REFINED,
    _REFINE_FALLBACKS,
    _bisect_windows,
    find_contact_intervals,
    sweep_accumulate,
)
from repro.sim.kernels import SiteGeometry
from repro.sim.visibility import VisibilityEngine


def _store(windows, n_sites, n_sats, start_s=0.0, end_s=100.0):
    """A store from ``{(site, sat): [(rise, set), ...]}``."""
    rises, sets, counts = [], [], []
    for s in range(n_sites):
        for n in range(n_sats):
            pairs = sorted(windows.get((s, n), []))
            rises += [rise for rise, _ in pairs]
            sets += [fall for _, fall in pairs]
            counts.append(len(pairs))
    offsets = np.zeros(n_sites * n_sats + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rise_s = np.array(rises, dtype=np.float64)
    set_s = np.array(sets, dtype=np.float64)
    return ContactIntervals(
        n_sites=n_sites, n_satellites=n_sats, start_s=start_s, end_s=end_s,
        rise_s=rise_s, set_s=set_s, truncated_start=rise_s == start_s,
        truncated_end=set_s == end_s, pair_offsets=offsets,
    )


# -- the per-query lexsort sweep the event index replaced, as the reference --


def _lexsort_union_seconds(starts, stops, groups, n_groups):
    k = int(starts.size)
    if k == 0:
        return np.zeros(n_groups, dtype=np.float64)
    times = np.concatenate([starts, stops])
    deltas = np.concatenate(
        [np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)]
    )
    both = np.concatenate([groups, groups])
    order = np.lexsort((deltas, times, both))
    return sweep_accumulate(times[order], deltas[order], both[order], n_groups)


def _lexsort_count_steps(starts, stops, start_s):
    k = int(starts.size)
    if k == 0:
        return np.array([start_s]), np.zeros(1, dtype=np.int64)
    times = np.concatenate([starts, stops])
    deltas = np.concatenate(
        [np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)]
    )
    order = np.lexsort((deltas, times))
    times = times[order]
    counts = np.cumsum(deltas[order])
    keep = np.empty(times.size, dtype=bool)
    keep[:-1] = times[1:] != times[:-1]
    keep[-1] = True
    times, counts = times[keep], counts[keep]
    if times[0] > start_s:
        times = np.concatenate([[start_s], times])
        counts = np.concatenate([[0], counts])
    return times, counts


def _windows(contacts, sites, sats):
    """(rise, set, site row, satellite row) of every window, pair by pair."""
    rises, sets, site_rows, sat_rows = [], [], [], []
    for i, s in enumerate(sites):
        for j, n in enumerate(sats):
            rise, fall, _, _ = contacts.pair_windows(int(s), int(n))
            rises.append(rise)
            sets.append(fall)
            site_rows.append(np.full(rise.size, i, dtype=np.intp))
            sat_rows.append(np.full(rise.size, j, dtype=np.intp))
    if not rises:
        empty = np.empty(0)
        return empty, empty, empty.astype(np.intp), empty.astype(np.intp)
    return tuple(np.concatenate(a) for a in (rises, sets, site_rows, sat_rows))


def _reference_coverage(contacts, sats):
    sats = np.arange(contacts.n_satellites) if sats is None else np.asarray(sats)
    if sats.size == 0:
        return np.zeros(contacts.n_sites)
    rise, fall, site_rows, _ = _windows(contacts, range(contacts.n_sites), sats)
    seconds = _lexsort_union_seconds(rise, fall, site_rows, contacts.n_sites)
    return seconds / contacts.span_s


def _reference_active(contacts, sats, sites):
    sats = np.arange(contacts.n_satellites) if sats is None else np.asarray(sats)
    sites = np.arange(contacts.n_sites) if sites is None else np.asarray(sites)
    if sats.size == 0:
        return np.zeros(0)
    if sites.size == 0:
        return np.zeros(sats.size)
    rise, fall, _, sat_rows = _windows(contacts, sites, sats)
    return _lexsort_union_seconds(rise, fall, sat_rows, sats.size) / contacts.span_s


def _reference_count_steps(contacts, site, sats):
    sats = np.arange(contacts.n_satellites) if sats is None else np.asarray(sats)
    rise, fall, _, _ = _windows(contacts, [site], sats)
    return _lexsort_count_steps(rise, fall, contacts.start_s)


def _assert_matches_reference(contacts, sats, site_subsets):
    np.testing.assert_array_equal(
        contacts.coverage_fractions(sats), _reference_coverage(contacts, sats)
    )
    for sites in site_subsets:
        np.testing.assert_array_equal(
            contacts.satellite_active_fractions(sats, sites),
            _reference_active(contacts, sats, sites),
        )
    for site in range(contacts.n_sites):
        got = contacts.visible_count_steps(site, sats)
        want = _reference_count_steps(contacts, site, sats)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[1].dtype == want[1].dtype


@pytest.fixture
def sites():
    return [
        GroundSite(
            name="taipei", latitude_deg=25.0, longitude_deg=121.5,
            min_elevation_deg=25.0,
        ),
        GroundSite(
            name="quito", latitude_deg=-0.2, longitude_deg=-78.5,
            min_elevation_deg=25.0,
        ),
        GroundSite(
            name="oslo", latitude_deg=59.9, longitude_deg=10.7,
            min_elevation_deg=25.0,
        ),
    ]


class TestIntervalSetNormalization:
    def test_zero_length_dropped(self):
        s = IntervalSet([10.0, 40.0], [10.0, 50.0], 0.0, 100.0)
        assert s.count == 1
        assert s.starts[0] == 40.0 and s.stops[0] == 50.0

    def test_touching_intervals_merge(self):
        s = IntervalSet([0.0, 5.0, 10.0], [5.0, 10.0, 15.0], 0.0, 100.0)
        assert s.count == 1
        assert s.total_s == 15.0

    def test_overlapping_intervals_merge(self):
        s = IntervalSet([0.0, 3.0], [8.0, 12.0], 0.0, 100.0)
        assert s.count == 1
        assert s.total_s == 12.0

    def test_clipped_to_horizon(self):
        s = IntervalSet([-10.0, 90.0], [5.0, 200.0], 0.0, 100.0)
        assert np.all(s.starts >= 0.0) and np.all(s.stops <= 100.0)
        assert s.total_s == 15.0

    def test_outside_horizon_dropped(self):
        s = IntervalSet([-20.0, 150.0], [-5.0, 170.0], 0.0, 100.0)
        assert s.count == 0

    def test_unsorted_input(self):
        s = IntervalSet([50.0, 10.0], [60.0, 20.0], 0.0, 100.0)
        assert list(s.starts) == [10.0, 50.0]


class TestIntervalSetAlgebra:
    def test_complement_involution(self):
        s = IntervalSet([10.0, 40.0], [20.0, 70.0], 0.0, 100.0)
        assert s.complement().complement() == s

    def test_complement_of_empty_is_full(self):
        empty = IntervalSet.empty(5.0, 50.0)
        full = IntervalSet.full(5.0, 50.0)
        assert empty.complement() == full
        assert full.complement() == empty

    def test_complement_includes_boundary_gaps(self):
        s = IntervalSet([10.0], [20.0], 0.0, 100.0)
        gaps = s.complement()
        assert gaps.count == 2
        assert list(gaps.starts) == [0.0, 20.0]
        assert list(gaps.stops) == [10.0, 100.0]

    def test_full_horizon_contact_has_no_gaps(self):
        s = IntervalSet.full(0.0, 100.0)
        assert s.gap_lengths_s().size == 0
        assert s.coverage_fraction == 1.0

    def test_intersect_via_de_morgan(self):
        a = IntervalSet([0.0, 50.0], [30.0, 80.0], 0.0, 100.0)
        b = IntervalSet([20.0, 70.0], [60.0, 90.0], 0.0, 100.0)
        meet = a.intersect(b)
        assert list(meet.starts) == [20.0, 50.0, 70.0]
        assert list(meet.stops) == [30.0, 60.0, 80.0]

    def test_union_inclusion_exclusion(self):
        a = IntervalSet([0.0, 50.0], [30.0, 80.0], 0.0, 100.0)
        b = IntervalSet([20.0, 70.0], [60.0, 90.0], 0.0, 100.0)
        assert a.union(b).total_s + a.intersect(b).total_s == pytest.approx(
            a.total_s + b.total_s
        )

    def test_mismatched_horizons_rejected(self):
        a = IntervalSet([0.0], [1.0], 0.0, 10.0)
        b = IntervalSet([0.0], [1.0], 0.0, 20.0)
        with pytest.raises(ValueError):
            a.union(b)

    def test_sample_half_open_membership(self):
        s = IntervalSet([10.0], [20.0], 0.0, 100.0)
        got = s.sample([9.999, 10.0, 15.0, 19.999, 20.0])
        assert list(got) == [False, True, True, True, False]

    def test_gap_lengths(self):
        s = IntervalSet([10.0, 40.0], [20.0, 90.0], 0.0, 100.0)
        assert list(s.gap_lengths_s()) == [10.0, 20.0, 10.0]


#: Adversarial interval lists on the horizon [0, 10); every endpoint is a
#: multiple of 0.5 so the 0.25 s indicator grid below resolves them.
INDICATOR_CASES = {
    "empty": [],
    "nested": [(1.0, 9.0), (2.0, 3.0), (4.0, 8.5)],
    "touching-chain": [(0.0, 1.0), (1.0, 2.5), (2.5, 4.0), (6.0, 7.0)],
    "duplicates": [(3.0, 5.0), (3.0, 5.0), (3.0, 5.0)],
    "reversed-pair": [(6.0, 2.0), (7.0, 8.0)],
    "straddles-horizon": [(-3.0, 0.5), (9.5, 14.0)],
    "points-only": [(1.0, 1.0), (5.5, 5.5)],
    "many-overlaps": [(i * 0.5, i * 0.5 + 1.5) for i in range(0, 18, 3)],
}
PARTNER = [(0.5, 2.0), (4.5, 6.5), (8.0, 10.0)]
TIMES = np.arange(-1.0, 11.0, 0.25)


def _indicator(pairs, start_s=0.0, end_s=10.0):
    """Brute-force half-open membership of TIMES in the clipped pairs."""
    inside = np.zeros(TIMES.shape, dtype=bool)
    for lo, hi in pairs:
        inside |= (TIMES >= max(lo, start_s)) & (TIMES < min(hi, end_s))
    return inside


def _set_of(pairs, start_s=0.0, end_s=10.0):
    """The IntervalSet built from ``[(start, stop), ...]``."""
    return IntervalSet(
        [lo for lo, _ in pairs], [hi for _, hi in pairs], start_s, end_s
    )


class TestIntervalSetAgainstIndicator:
    @pytest.mark.parametrize("case", sorted(INDICATOR_CASES))
    def test_normalized_set_matches_indicator(self, case):
        pairs = INDICATOR_CASES[case]
        s = _set_of(pairs)
        assert np.all(s.starts < s.stops)
        assert np.all(s.stops[:-1] < s.starts[1:])  # Strictly interleaved.
        assert np.array_equal(s.sample(TIMES), _indicator(pairs))
        assert s.total_s == pytest.approx(_indicator(pairs).sum() * 0.25)

    @pytest.mark.parametrize("case", sorted(INDICATOR_CASES))
    def test_algebra_matches_indicator_logic(self, case):
        a = _set_of(INDICATOR_CASES[case])
        b = _set_of(PARTNER)
        in_a = _indicator(INDICATOR_CASES[case])
        in_b = _indicator(PARTNER)
        horizon = _indicator([(0.0, 10.0)])
        assert np.array_equal(a.union(b).sample(TIMES), in_a | in_b)
        assert np.array_equal(a.intersect(b).sample(TIMES), in_a & in_b)
        assert np.array_equal(a.complement().sample(TIMES), horizon & ~in_a)
        assert a.gaps() == a.complement()


class TestIntervalSetContract:
    def test_horizon_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="horizon end precedes start"):
            IntervalSet([1.0], [2.0], 10.0, 0.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            IntervalSet([1.0, 2.0], [3.0], 0.0, 10.0)

    def test_equality_needs_same_horizon(self):
        a = IntervalSet([1.0], [2.0], 0.0, 10.0)
        assert a == IntervalSet(np.array([1.0]), np.array([2.0]), 0.0, 10.0)
        assert a != IntervalSet([1.0], [2.0], 0.0, 20.0)
        assert a != [(1.0, 2.0)]

    def test_zero_span_horizon_has_zero_coverage(self):
        s = IntervalSet.full(5.0, 5.0)
        assert s.count == 0
        assert s.coverage_fraction == 0.0

    def test_from_empty_pairs_is_empty(self):
        assert IntervalSet([], [], 0.0, 10.0) == IntervalSet.empty(0.0, 10.0)


class TestGroupedSweeps:
    def test_grouped_union_matches_per_group_sets(self):
        rng = np.random.default_rng(11)
        n_groups = 5
        windows = {}
        for g in range(n_groups):
            for _ in range(rng.integers(0, 8)):
                a = float(rng.uniform(0.0, 900.0))
                # Each window on its own satellite: groups are sites.
                windows[(g, len(windows))] = [(a, a + float(rng.uniform(0.0, 200.0)))]
        contacts = _store(windows, n_groups, len(windows), 0.0, 1200.0)
        fractions = contacts.coverage_fractions()
        np.testing.assert_array_equal(fractions, _reference_coverage(contacts, None))
        for g in range(n_groups):
            pairs = [w for (site, _), ws in windows.items() if site == g for w in ws]
            expect = _set_of(pairs, 0.0, 1200.0).coverage_fraction
            assert fractions[g] == pytest.approx(expect)

    def test_empty_groups_are_zero(self):
        contacts = _store({(2, 0): [(1.0, 2.0)]}, 4, 1)
        assert contacts.coverage_fractions().tolist() == [0.0, 0.0, 0.01, 0.0]

    def test_sweep_accumulate_matches_sequential_loop(self):
        """Bit-exact against a per-event loop adding spans in array order."""
        rng = np.random.default_rng(11)
        n_groups = 4
        starts = rng.uniform(0.0, 500.0, size=(n_groups, 6))
        stops = starts + rng.uniform(0.0, 80.0, size=starts.shape)
        k = starts.size
        times = np.concatenate([starts.ravel(), stops.ravel()])
        deltas = np.concatenate(
            [np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)]
        )
        groups = np.tile(np.repeat(np.arange(n_groups), 6), 2)
        order = np.lexsort((deltas, times, groups))
        times, deltas, groups = times[order], deltas[order], groups[order]
        want = np.zeros(n_groups)
        count = 0
        for i in range(times.size - 1):
            count += deltas[i]
            if groups[i + 1] == groups[i] and count > 0:
                want[groups[i]] += times[i + 1] - times[i]
        got = sweep_accumulate(times, deltas, groups, n_groups)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.float64

    def test_sweep_count_steps(self):
        contacts = _store(
            {(0, 0): [(10.0, 20.0)], (0, 1): [(15.0, 25.0)], (0, 2): [(30.0, 40.0)]},
            1, 3,
        )
        times, counts = contacts.visible_count_steps(0)
        assert times[0] == 0.0 and counts[0] == 0
        # Count at a time = value of the last step at or before it.
        probe = {5.0: 0, 12.0: 1, 17.0: 2, 22.0: 1, 27.0: 0, 35.0: 1, 45.0: 0}
        for t, expect in probe.items():
            idx = np.searchsorted(times, t, side="right") - 1
            assert counts[idx] == expect, t


class TestEngineParity:
    """The analytic engine against the dense grid tensor."""

    def _check_parity(self, constellation, sites, grid):
        reference = VisibilityEngine(grid).visibility(constellation, sites)
        contacts = find_contact_intervals(constellation, sites, grid)
        times = grid.times_s
        n_sites, n_sats, _ = reference.shape
        assert contacts.n_sites == n_sites
        assert contacts.n_satellites == n_sats
        assert contacts.n_contacts > 0, "vacuous: no contacts in fixture"
        for s in range(n_sites):
            for n in range(n_sats):
                mask = reference[s, n]
                pair = contacts.pair(s, n)
                assert np.array_equal(pair.sample(times), mask), (s, n)
                runs = int(mask[0]) + int(
                    np.count_nonzero(~mask[:-1] & mask[1:])
                )
                assert contacts.pair_count(s, n) == runs, (s, n)
            union_mask = reference[s].any(axis=0)
            assert np.array_equal(
                contacts.site_union(s).sample(times), union_mask
            ), s
            assert np.array_equal(
                contacts.sample_counts(times, s), reference[s].sum(axis=0)
            ), s
        return reference, contacts

    def test_resample_identity_circular(self, small_walker, sites, short_grid):
        self._check_parity(small_walker, sites, short_grid)

    def test_resample_identity_eccentric(self, sites, short_grid):
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0 + 40.0 * index,
                inclination_deg=53.0 + index,
                raan_deg=36.0 * index,
                mean_anomaly_deg=45.0 * index,
                eccentricity=0.015,
            )
            for index in range(10)
        ]
        self._check_parity(elements, sites, short_grid)

    def test_coverage_within_edge_budget(self, small_walker, sites, short_grid):
        reference, contacts = self._check_parity(small_walker, sites, short_grid)
        step = short_grid.step_s
        for s in range(len(sites)):
            union = contacts.site_union(s)
            budget = 2.0 * union.count * step / contacts.span_s
            drift = abs(
                union.coverage_fraction - float(reference[s].any(axis=0).mean())
            )
            assert drift <= budget

    def test_edges_within_one_scan_step(self, small_walker, sites, short_grid):
        reference = VisibilityEngine(short_grid).visibility(small_walker, sites)
        contacts = find_contact_intervals(small_walker, sites, short_grid)
        step = short_grid.step_s
        for s in range(len(sites)):
            for n in range(len(small_walker)):
                runs = intervals_from_mask(
                    reference[s, n], step, short_grid.start_s
                )
                rises, falls, _, _ = contacts.pair_windows(s, n)
                assert len(runs) == rises.size, (s, n)
                for (start_s, stop_s), rise, fall in zip(runs, rises, falls):
                    # Analytic edges stay within one scan step of the grid edges.
                    assert abs(rise - start_s) <= step, (s, n)
                    assert abs(fall - stop_s) <= step, (s, n)

    def test_truncation_flags(self, small_walker, sites, short_grid):
        reference = VisibilityEngine(short_grid).visibility(small_walker, sites)
        contacts = find_contact_intervals(small_walker, sites, short_grid)
        for s in range(len(sites)):
            for n in range(len(small_walker)):
                rises, falls, t_start, t_end = contacts.pair_windows(s, n)
                mask = reference[s, n]
                if rises.size == 0:
                    assert not mask.any()
                    continue
                assert bool(t_start[0]) == bool(mask[0]), (s, n)
                assert bool(t_end[-1]) == bool(mask[-1]), (s, n)
                # Interior windows are never truncated.
                assert not t_start[1:].any() and not t_end[:-1].any()
                if t_start[0]:
                    assert rises[0] == short_grid.start_s
                if t_end[-1]:
                    assert falls[-1] == contacts.end_s

    def test_unrefined_edges_sit_on_scan_samples(
        self, small_walker, sites, short_grid
    ):
        contacts = find_contact_intervals(
            small_walker, sites, short_grid, refine=False
        )
        step = short_grid.step_s
        for edges in (contacts.rise_s, contacts.set_s):
            offsets = (edges - short_grid.start_s) / step
            assert np.allclose(offsets, np.round(offsets))

    def test_refinement_is_chunk_invariant(self, small_walker, sites, short_grid):
        base = find_contact_intervals(small_walker, sites, short_grid)
        for chunk in (1, 7, 1_000_000):
            other = find_contact_intervals(
                small_walker, sites, short_grid, chunk_size=chunk
            )
            assert np.array_equal(base.pair_offsets, other.pair_offsets), chunk
            assert np.array_equal(base.rise_s, other.rise_s), chunk
            assert np.array_equal(base.set_s, other.set_s), chunk

    @pytest.mark.parametrize(
        "tolerance_s", [0.0, -0.5, float("inf"), float("nan")]
    )
    def test_rejects_bad_tolerance(self, small_walker, sites, short_grid, tolerance_s):
        with pytest.raises(ValueError, match="tolerance_s"):
            find_contact_intervals(
                small_walker, sites, short_grid, tolerance_s=tolerance_s
            )


#: A store's window arrays, in the order the full-pool digest hashes them.
STORE_COLUMNS = (
    "rise_s", "set_s", "truncated_start", "truncated_end", "pair_offsets"
)


def _assert_same_store(left, right):
    for name in STORE_COLUMNS:
        assert np.array_equal(getattr(left, name), getattr(right, name)), name


class TestScanEdgeCases:
    """Chunkings and slab layouts that reach the scan's rarer branches."""

    def test_all_culled_pool_has_no_contacts(self, sites, short_grid):
        # A 5 deg shell never rises 25 deg above Oslo (59.9 deg N): the plan
        # culls every pair and the slabs are C-ordered zeros.
        propagator = BatchPropagator(
            walker_delta(16, 2, 1, inclination_deg=5.0, altitude_km=550.0)
        )
        oslo = [sites[2]]
        plan = kernels.plan_stream(
            propagator, SiteGeometry(oslo, short_grid), short_grid
        )
        assert plan.nothing_visible
        base = find_contact_intervals(propagator, oslo, short_grid)
        assert base.n_contacts == 0
        assert not base.pair_offsets.any()
        for chunk in (1, 7, short_grid.count - 1):
            _assert_same_store(
                base,
                find_contact_intervals(
                    propagator, oslo, short_grid, chunk_size=chunk
                ),
            )

    def test_one_sample_last_chunk(self, small_walker, sites, short_grid):
        # End the grid on a sample that some pair changes state at, then
        # chunk it so that sample is alone in the last chunk: the transition
        # is found only by comparing it with the previous chunk's last column.
        coarse = find_contact_intervals(
            small_walker, sites, short_grid, refine=False
        )
        edges = np.concatenate([
            coarse.rise_s[~coarse.truncated_start],
            coarse.set_s[~coarse.truncated_end],
        ])
        last = int(round((edges.max() - short_grid.start_s) / short_grid.step_s))
        grid = TimeGrid(
            duration_s=(last + 1) * short_grid.step_s, step_s=short_grid.step_s
        )
        assert grid.count == last + 1
        for refine in (False, True):
            base = find_contact_intervals(small_walker, sites, grid, refine=refine)
            assert base.n_contacts > 0
            _assert_same_store(
                base,
                find_contact_intervals(
                    small_walker, sites, grid, chunk_size=last, refine=refine
                ),
            )


@pytest.fixture(scope="module")
def sub_pool():
    """Every 8th satellite of the 4 408-satellite pool, over every site."""
    from repro.constellation.shells import starlink_like_constellation
    from repro.experiments.common import ALL_SITES
    from repro.ground.cities import terminals_for_cities

    pool = BatchPropagator(
        starlink_like_constellation(rng=np.random.default_rng(0)).elements
    )
    return (
        pool.subset(np.arange(0, pool.count, 8)),
        terminals_for_cities(ALL_SITES),
    )


def _eccentric_elements():
    """Ten orbits at e = 0.015: a pool the refine must bisect."""
    return [
        OrbitalElements.from_degrees(
            altitude_km=550.0 + 40.0 * index,
            inclination_deg=53.0 + index,
            raan_deg=36.0 * index,
            mean_anomaly_deg=45.0 * index,
            eccentricity=0.015,
        )
        for index in range(10)
    ]


class TestRefinementIdentity:
    """The Newton-steered refinement equals plain bisection bit for bit."""

    @staticmethod
    def _refine_both(propagator, sites, grid):
        geometry = SiteGeometry(sites, grid)
        before = _REFINE_FALLBACKS.value
        refined = find_contact_intervals(
            propagator, sites, grid, geometry=geometry
        )
        fallbacks = _REFINE_FALLBACKS.value - before
        coarse = find_contact_intervals(
            propagator, sites, grid, geometry=geometry, refine=False
        )
        rise_s, set_s = _bisect_windows(
            propagator, geometry, coarse, grid.step_s, DEFAULT_EDGE_TOLERANCE_S
        )
        edges = int(
            np.count_nonzero(~coarse.truncated_start)
            + np.count_nonzero(~coarse.truncated_end)
        )
        return refined, (rise_s, set_s), edges, fallbacks

    @pytest.mark.parametrize("step_s", [60.0, 120.0, 300.0])
    def test_matches_bisection_on_every_edge(self, sub_pool, step_s):
        propagator, sites = sub_pool
        grid = TimeGrid(duration_s=86_400.0, step_s=step_s)
        refined, (rise_s, set_s), edges, fallbacks = self._refine_both(
            propagator, sites, grid
        )
        assert edges > 10_000
        # The estimate must carry nearly every edge, or nothing is tested.
        assert fallbacks < 0.05 * edges
        assert np.array_equal(refined.rise_s, rise_s)
        assert np.array_equal(refined.set_s, set_s)

    def test_all_fallback_matches_bisection(self, sub_pool, monkeypatch):
        monkeypatch.setattr(intervals_module, "NEWTON_STEPS", 0)
        propagator, sites = sub_pool
        grid = TimeGrid(duration_s=86_400.0, step_s=300.0)
        refined, (rise_s, set_s), edges, fallbacks = self._refine_both(
            propagator, sites, grid
        )
        # Unrefined estimates sit on the bracket's invisible end; no edge of
        # this pool lies in that end's cell, so every edge is bisected.
        assert fallbacks == edges
        assert np.array_equal(refined.rise_s, rise_s)
        assert np.array_equal(refined.set_s, set_s)

    def test_jittered_estimate_matches_bisection(self, sub_pool, monkeypatch):
        # Knock each estimate up to two final cells off, so the exact check
        # must catch the misses: a check that trusts the estimate fails here.
        newton = intervals_module._newton_edges
        rng = np.random.default_rng(7)
        cell_s = 300.0 / 2 ** 15

        def jittered(*args):
            t_est = newton(*args)
            return t_est + rng.uniform(-2.0, 2.0, t_est.size) * cell_s

        monkeypatch.setattr(intervals_module, "_newton_edges", jittered)
        propagator, sites = sub_pool
        grid = TimeGrid(duration_s=86_400.0, step_s=300.0)
        refined, (rise_s, set_s), edges, fallbacks = self._refine_both(
            propagator, sites, grid
        )
        assert 0.2 * edges < fallbacks < 0.9 * edges
        assert np.array_equal(refined.rise_s, rise_s)
        assert np.array_equal(refined.set_s, set_s)

    def test_refine_batches_do_not_change_edges(self, sub_pool, monkeypatch):
        propagator, sites = sub_pool
        grid = TimeGrid(duration_s=21_600.0, step_s=300.0)
        geometry = SiteGeometry(sites, grid)

        def build():
            before = _REFINE_FALLBACKS.value
            contacts = find_contact_intervals(
                propagator, sites, grid, geometry=geometry
            )
            return contacts, _REFINE_FALLBACKS.value - before

        base, base_fallbacks = build()
        monkeypatch.setattr(intervals_module, "REFINE_BATCH", 7)
        small, small_fallbacks = build()
        assert base_fallbacks > 0, "vacuous: no edge bisected"
        assert small_fallbacks == base_fallbacks
        assert np.array_equal(small.rise_s, base.rise_s)
        assert np.array_equal(small.set_s, base.set_s)

    def test_eccentric_pool_bisects(self, sites, short_grid, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("eccentric pools must not take the estimate")

        monkeypatch.setattr(intervals_module, "_newton_edges", unused)
        propagator = BatchPropagator(_eccentric_elements())
        refined, (rise_s, set_s), edges, fallbacks = self._refine_both(
            propagator, sites, short_grid
        )
        assert edges > 0 and fallbacks == edges
        assert np.array_equal(refined.rise_s, rise_s)
        assert np.array_equal(refined.set_s, set_s)


#: SHA-1 of the default pool's interval store at 300 s over one day, over
#: the bytes of each STORE_COLUMNS array in order.  The edges are
#: bisection's bit for bit, so no change to the scan or the refine may move
#: it.
FULL_POOL_DIGEST_300S_1D = "cefefd2fe462ae781a26c22bce1cd1341596571a"


class TestIntervalStoreIdentity:
    def test_full_pool_digest(self):
        from repro.constellation.shells import starlink_like_constellation
        from repro.experiments.common import ALL_SITES
        from repro.ground.cities import terminals_for_cities

        pool = BatchPropagator.from_columns(
            starlink_like_constellation(rng=np.random.default_rng(0)).columns
        )
        grid = TimeGrid(duration_s=86_400.0, step_s=300.0)
        edges, fallbacks = _EDGES_REFINED.value, _REFINE_FALLBACKS.value
        contacts = find_contact_intervals(
            pool, terminals_for_cities(ALL_SITES), grid
        )
        edges = _EDGES_REFINED.value - edges
        fallbacks = _REFINE_FALLBACKS.value - fallbacks
        digest = hashlib.sha1()
        for name in STORE_COLUMNS:
            digest.update(np.ascontiguousarray(getattr(contacts, name)).tobytes())
        assert digest.hexdigest() == FULL_POOL_DIGEST_300S_1D
        assert edges > 300_000
        assert fallbacks <= 0.02 * edges


#: Counters a threaded refine must leave as a one-worker build does.
REFINE_COUNTERS = (
    "sim.intervals.refined_edges",
    "sim.intervals.refine_fallbacks",
    "sim.intervals.contacts",
    "sim.intervals.scan_transitions",
    "orbits.propagator.state_evaluations",
)

#: Refine cases: the pool ``TestThreadedRefine._inputs`` builds, and the
#: module settings patched for it.  The eccentric pool has a few dozen
#: edges, so its batches are shrunk until every worker gets several; the
#: Walker pool keeps the default batch and has fewer edges than one.
THREADED_REFINE_CASES = {
    "circular": ("sub_pool", {}),
    "all_fallback": ("sub_pool", {"NEWTON_STEPS": 0}),
    "eccentric": ("eccentric", {"REFINE_BATCH": 12}),
    "under_one_batch": ("walker", {}),
    "nothing_visible": ("culled", {}),
}


def _both_workers_refine(monkeypatch):
    """Hold each of two workers at its first batch until the other has
    one too: workers take batches as they free up, so either could
    otherwise refine every batch alone."""
    barrier = threading.Barrier(2, timeout=30)
    started = set()
    estimate = intervals_module._estimate_edges

    def meet_first(*args):
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            barrier.wait()
        return estimate(*args)

    monkeypatch.setattr(intervals_module, "_estimate_edges", meet_first)


class TestThreadedRefine:
    """``_refine_windows`` splits its batches over one worker per available
    CPU.  The store must be the same bytes for any worker count, and the
    workers must leave the counters and every traced callable to the
    calling thread."""

    @staticmethod
    def _inputs(case, sub_pool, sites, small_walker):
        pool, _ = THREADED_REFINE_CASES[case]
        day = TimeGrid(duration_s=86_400.0, step_s=300.0)
        short = TimeGrid.hours(6.0, step_s=60.0)
        if pool == "sub_pool":
            return sub_pool[0], sub_pool[1], day
        if pool == "eccentric":
            return BatchPropagator(_eccentric_elements()), sites, short
        if pool == "walker":
            return small_walker, sites, short
        # A 5 deg shell never rises 25 deg above Oslo: every pair is culled.
        shell = walker_delta(16, 2, 1, inclination_deg=5.0, altitude_km=550.0)
        return BatchPropagator(shell), [sites[2]], short

    @staticmethod
    def _build(monkeypatch, cpus, case, inputs):
        monkeypatch.setattr(kernels, "_available_cpus", lambda: cpus)
        for name, value in THREADED_REFINE_CASES[case][1].items():
            monkeypatch.setattr(intervals_module, name, value)
        before = [metrics.counter(name).value for name in REFINE_COUNTERS]
        contacts = find_contact_intervals(*inputs)
        deltas = [
            metrics.counter(name).value - value
            for name, value in zip(REFINE_COUNTERS, before)
        ]
        return contacts, deltas

    @pytest.mark.parametrize("case", sorted(THREADED_REFINE_CASES))
    def test_store_and_counters_equal_a_one_worker_build(
        self, monkeypatch, sub_pool, sites, small_walker, case
    ):
        inputs = self._inputs(case, sub_pool, sites, small_walker)
        one, one_counts = self._build(monkeypatch, 1, case, inputs)
        edges, fallbacks, contacts, transitions, evaluations = one_counts
        assert contacts == one.n_contacts
        if case == "nothing_visible":
            assert contacts == transitions == edges == evaluations == 0
        else:
            assert edges > 0 and transitions > 0 and evaluations > 0
            if case in ("all_fallback", "eccentric"):
                assert fallbacks == edges
            else:
                assert fallbacks < edges
        batch = intervals_module.REFINE_BATCH
        if case == "under_one_batch":
            assert edges < batch // 3
        else:  # Every worker of three refines more than one batch.
            assert edges == 0 or edges > 2 * batch
        for cpus in (2, 3):
            threaded, counts = self._build(monkeypatch, cpus, case, inputs)
            _assert_same_store(threaded, one)
            assert counts == one_counts

    def test_many_workers_with_fast_switching(
        self, monkeypatch, sub_pool, sites, small_walker
    ):
        """More workers than cores, two-edge batches and a 1 us switch
        interval: a lost update of the shared batch cursor would refine
        a batch twice or skip one, and move the counters or the store."""
        case = "under_one_batch"
        inputs = self._inputs(case, sub_pool, sites, small_walker)
        monkeypatch.setattr(intervals_module, "REFINE_BATCH", 16)
        one, one_counts = self._build(monkeypatch, 1, case, inputs)
        assert one_counts[0] >= 100  # 50+ two-edge batches over 8 workers.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many, counts = self._build(monkeypatch, 8, case, inputs)
        finally:
            sys.setswitchinterval(interval)
        _assert_same_store(many, one)
        assert counts == one_counts

    @pytest.mark.parametrize("failing", ("calling", "pool"))
    def test_a_failed_worker_raises_its_own_error(
        self, monkeypatch, sub_pool, failing
    ):
        """Whichever of two workers fails, its error is what the caller
        sees."""
        caller = threading.get_ident()
        _both_workers_refine(monkeypatch)
        estimate = intervals_module._estimate_edges

        def failing_estimate(*args):
            result = estimate(*args)
            if (threading.get_ident() == caller) == (failing == "calling"):
                raise ValueError("estimate failed")
            return result

        monkeypatch.setattr(kernels, "_available_cpus", lambda: 2)
        monkeypatch.setattr(intervals_module, "_estimate_edges", failing_estimate)
        propagator, sites = sub_pool
        grid = TimeGrid(duration_s=86_400.0, step_s=300.0)
        with pytest.raises(ValueError, match="estimate failed"):
            find_contact_intervals(propagator, sites, grid)

    @pytest.mark.parametrize(
        "cpus, case", ((1, "circular"), (3, "under_one_batch"))
    )
    def test_refines_inline_without_work_for_a_pool(
        self, monkeypatch, sub_pool, sites, small_walker, cpus, case
    ):
        """One CPU, or fewer edges than one worker batch, starts no pool,
        so the runner trims nothing: the one trim is the build's own, once
        the refine has returned."""

        def no_pool(*args, **kwargs):
            raise AssertionError("the refine started a thread pool")

        trims = []
        monkeypatch.setattr(kernels, "_trim_heap", lambda: trims.append(1))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        inputs = self._inputs(case, sub_pool, sites, small_walker)
        contacts, _ = self._build(monkeypatch, cpus, case, inputs)
        assert contacts.n_contacts > 0
        assert trims == [1]

    def test_heap_is_trimmed_after_the_refine_returns(
        self, monkeypatch, sub_pool
    ):
        """The refine drops its edge arrays only as it returns, after the
        runner's trim, so the build hands their pages back once more."""
        calls = []
        refine = intervals_module._refine_windows

        def recorded_refine(*args):
            result = refine(*args)
            calls.append("refine")
            return result

        monkeypatch.setattr(kernels, "_available_cpus", lambda: 2)
        monkeypatch.setattr(kernels, "_trim_heap", lambda: calls.append("trim"))
        monkeypatch.setattr(intervals_module, "_refine_windows", recorded_refine)
        propagator, sites = sub_pool
        grid = TimeGrid(duration_s=86_400.0, step_s=300.0)
        find_contact_intervals(propagator, sites, grid)
        assert calls.count("refine") == 1
        assert calls[-2:] == ["refine", "trim"]

    def test_pool_work_stays_off_traced_callables(self, monkeypatch, sub_pool):
        """Benchmark tracers wrap the public evaluator and ``iter_slabs``
        with one unlocked span stack, so a worker thread must not call
        them; the workers evaluate through the uncounted method."""
        calls = []

        def record(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapper

        iter_slabs = kernels.iter_slabs

        def recorded_slabs(plan):
            for item in iter_slabs(plan):
                calls.append(("iter_slabs", threading.get_ident()))
                yield item

        trims = []
        monkeypatch.setattr(kernels, "iter_slabs", recorded_slabs)
        monkeypatch.setattr(kernels, "_trim_heap", lambda: trims.append(1))
        for name in ("unit_positions_at", "_unit_positions_at"):
            monkeypatch.setattr(
                BatchPropagator, name, record(getattr(BatchPropagator, name))
            )
        monkeypatch.setattr(kernels, "_available_cpus", lambda: 2)
        _both_workers_refine(monkeypatch)
        propagator, sites = sub_pool
        find_contact_intervals(
            propagator, sites, TimeGrid(duration_s=86_400.0, step_s=300.0)
        )
        caller = threading.get_ident()
        traced = {ident for name, ident in calls if name != "_unit_positions_at"}
        assert traced == {caller}
        assert any(name == "iter_slabs" for name, _ in calls)
        # The refine itself calls the public evaluator nowhere.
        assert all(name != "unit_positions_at" for name, _ in calls)
        evaluators = {ident for name, ident in calls if name == "_unit_positions_at"}
        assert len(evaluators) == 2
        # The pool's freed pages go back after the join, the refine's edge
        # arrays once it has returned.
        assert trims == [1, 1]


class TestContactIntervalsReductions:
    @pytest.fixture
    def contacts(self, small_walker, sites, short_grid):
        return find_contact_intervals(small_walker, sites, short_grid)

    def test_coverage_fractions_match_site_unions(self, contacts):
        subset = np.array([0, 3, 5, 11, 20])
        fractions = contacts.coverage_fractions(subset)
        for s in range(contacts.n_sites):
            expect = contacts.site_union(s, subset).coverage_fraction
            assert fractions[s] == pytest.approx(expect)

    def test_active_fractions_match_satellite_unions(self, contacts):
        subset = np.array([2, 7, 13])
        active = contacts.satellite_active_fractions(subset, [0, 2])
        for row, sat in enumerate(subset):
            expect = contacts.satellite_union(int(sat), [0, 2]).coverage_fraction
            assert active[row] == pytest.approx(expect)

    def test_empty_selections(self, contacts):
        assert contacts.coverage_fractions([]).tolist() == [0.0] * contacts.n_sites
        assert contacts.satellite_active_fractions([], None).size == 0
        assert contacts.satellite_active_fractions([1, 2], []).tolist() == [0.0, 0.0]
        assert contacts.site_union(0, []).count == 0

    def test_contact_count_totals(self, contacts):
        per_pair = sum(
            contacts.pair_count(s, n)
            for s in range(contacts.n_sites)
            for n in range(contacts.n_satellites)
        )
        assert per_pair == contacts.n_contacts

    def test_k_coverage_monotone_in_k(self, contacts):
        fractions = [
            contacts.k_coverage_fraction(0, k) for k in range(1, 5)
        ]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == pytest.approx(
            contacts.site_union(0).coverage_fraction
        )


class TestUnitPositionsAt:
    """Paired per-element evaluation against the full state matrix."""

    @pytest.mark.parametrize("eccentricity", [0.0, 0.02])
    def test_matches_positions_eci(self, eccentricity):
        from repro.orbits.propagator import BatchPropagator

        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0 + 25.0 * index,
                inclination_deg=40.0 + 5.0 * index,
                raan_deg=60.0 * index,
                mean_anomaly_deg=80.0 * index,
                eccentricity=eccentricity,
            )
            for index in range(5)
        ]
        propagator = BatchPropagator(elements)
        times = np.linspace(0.0, 7200.0, 9)
        full = propagator.positions_eci(times)  # (N, T, 3)
        full_units = full / np.linalg.norm(full, axis=-1, keepdims=True)
        sat_idx = np.array([0, 2, 4, 1, 3, 0])
        probe_t = times[np.array([1, 3, 5, 7, 0, 8])]
        units = propagator.unit_positions_at(sat_idx, probe_t)
        for row, (n, t) in enumerate(zip(sat_idx, [1, 3, 5, 7, 0, 8])):
            np.testing.assert_allclose(
                units[row], full_units[n, t], atol=1e-9
            )


#: Ties and boundaries on 2 sites x 5 satellites over [0, 100): satellite
#: 0 sets at 30 where satellite 1 rises, satellite 2 repeats satellite 0's
#: window, satellite 3 is truncated at both horizon edges, satellite 4 is
#: visible all horizon, and site 1 has windows that touch end to start.
EDGE_WINDOWS = {
    (0, 0): [(10.0, 30.0)],
    (0, 1): [(30.0, 50.0)],
    (0, 2): [(10.0, 30.0)],
    (0, 3): [(0.0, 20.0), (80.0, 100.0)],
    (1, 0): [(50.0, 60.0), (70.0, 90.0)],
    (1, 1): [(60.0, 70.0)],
    (1, 4): [(0.0, 100.0)],
}

EDGE_SUBSETS = [
    [], [0], [0, 1], [0, 2], [3], [4], [0, 0, 1], [1, 1, 1], [4, 3, 2, 1, 0],
    None,
]


class TestEventIndex:
    """Reductions read the once-sorted event index bit-identically to the
    per-query lexsort sweep."""

    @pytest.fixture
    def edges(self):
        return _store(EDGE_WINDOWS, 2, 5)

    @pytest.mark.parametrize(
        "sats", EDGE_SUBSETS, ids=[str(sats) for sats in EDGE_SUBSETS]
    )
    def test_edge_windows_match_reference(self, edges, sats):
        _assert_matches_reference(edges, sats, [None, [], [0], [1], [0, 1], [1, 1]])

    def test_edge_store_values(self, edges):
        np.testing.assert_array_equal(
            edges.coverage_fractions([0, 1]), [0.4, 0.4]
        )
        np.testing.assert_array_equal(
            edges.satellite_active_fractions([0, 3, 4]), [0.5, 0.4, 1.0]
        )
        times, counts = edges.visible_count_steps(0, [0, 1, 2])
        assert times.tolist() == [0.0, 10.0, 30.0, 50.0]
        assert counts.tolist() == [0, 2, 1, 0]

    @pytest.mark.parametrize("refine", [True, False])
    def test_pool_matches_reference(self, small_walker, sites, short_grid, refine):
        # Unrefined edges sit on scan samples, so many satellites' rise and
        # set times tie exactly.
        contacts = find_contact_intervals(
            small_walker, sites, short_grid, refine=refine
        )
        n = contacts.n_satellites
        rng = np.random.default_rng(5)
        site_subsets = [None, [], [1], list(range(contacts.n_sites))]
        for sats in [None, [], list(range(n))] + [
            rng.choice(n, size=size, replace=True) for size in (1, 4, 15, 40)
        ]:
            _assert_matches_reference(contacts, sats, site_subsets)

    def test_orders_are_time_sorted_within_groups(self, edges):
        events = edges.event_index()
        assert events.site_times.size == events.sat_times.size == 2 * edges.n_contacts
        for times, offsets in (
            (events.site_times, events.site_offsets),
            (events.sat_times, events.sat_offsets),
        ):
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                assert np.all(np.diff(times[lo:hi]) >= 0.0)
        np.testing.assert_array_equal(
            events.site_groups,
            np.repeat(np.arange(edges.n_sites), np.diff(events.site_offsets)),
        )
        assert events.site_deltas.sum() == events.sat_deltas.sum() == 0

    def test_built_once_per_store(self, small_walker, sites, short_grid):
        contacts = find_contact_intervals(small_walker, sites, short_grid)
        events = contacts.event_index()
        arrays = [id(a) for a in events]
        contacts.coverage_fractions([1, 2])
        contacts.satellite_active_fractions([3], [0])
        contacts.k_coverage_fraction(0, 2, [4, 5])
        assert contacts.event_index() is events
        assert [id(a) for a in contacts.event_index()] == arrays

    def test_empty_store(self):
        contacts = _store({}, 2, 3)
        assert contacts.coverage_fractions().tolist() == [0.0, 0.0]
        assert contacts.satellite_active_fractions().tolist() == [0.0] * 3
        times, counts = contacts.visible_count_steps(1)
        assert times.tolist() == [0.0] and counts.tolist() == [0]

    def test_restricted_copy_bit_identical(self, small_walker, sites, short_grid):
        contacts = find_contact_intervals(small_walker, sites, short_grid)
        rng = np.random.default_rng(9)
        fleet = np.sort(rng.choice(contacts.n_satellites, size=17, replace=False))
        query = IntervalSubsetQuery.from_contacts(contacts, fleet)
        for size in (0, 1, 6, 17):
            subset = rng.choice(fleet, size=size, replace=False)
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                contacts.coverage_fractions(subset),
            )
            for site_indices in (None, [], [2], [0, 1, 2]):
                np.testing.assert_array_equal(
                    query.satellite_active_fractions(subset, site_indices),
                    contacts.satellite_active_fractions(subset, site_indices),
                )
            for site in range(contacts.n_sites):
                for k in (1, 2, 3):
                    assert query.k_coverage_fraction(
                        site, k, subset
                    ) == contacts.k_coverage_fraction(site, k, subset)


class TestWithdrawalCoverage:
    """One coded event pass answers a withdrawal bit for bit like two
    ``coverage_fractions`` calls: the whole order and its kept tail."""

    @pytest.fixture
    def contacts(self, small_walker, sites, short_grid):
        return find_contact_intervals(small_walker, sites, short_grid)

    @pytest.mark.parametrize("size", [0, 1, 9, "all"])
    def test_matches_two_coverage_calls(self, contacts, size):
        n = contacts.n_satellites
        size = n if size == "all" else size
        order = np.random.default_rng(size).permutation(n)[:size]
        for withdrawn in sorted({0, size // 2, size}):
            base, kept = contacts.withdrawal_coverage(order, withdrawn)
            np.testing.assert_array_equal(base, contacts.coverage_fractions(order))
            np.testing.assert_array_equal(
                kept, contacts.coverage_fractions(order[withdrawn:])
            )

    def test_edge_windows(self):
        edges = _store(EDGE_WINDOWS, 2, 5)
        for order in ([4, 0, 3, 1, 2], [1, 0], [1, 3, 1]):
            for withdrawn in range(len(order) + 1):
                base, kept = edges.withdrawal_coverage(order, withdrawn)
                np.testing.assert_array_equal(base, edges.coverage_fractions(order))
                np.testing.assert_array_equal(
                    kept, edges.coverage_fractions(order[withdrawn:])
                )

    def test_empty_order_and_store(self):
        for contacts in (_store(EDGE_WINDOWS, 2, 5), _store({}, 2, 3)):
            base, kept = contacts.withdrawal_coverage([], 0)
            assert base.tolist() == kept.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("withdrawn", [-1, 4])
    def test_withdrawn_outside_order_raises(self, withdrawn):
        with pytest.raises(ValueError, match="withdrawn"):
            _store(EDGE_WINDOWS, 2, 5).withdrawal_coverage([3, 1, 2], withdrawn)


#: Every public reduction, called with one bad satellite (``sat``) or site
#: index (``site``); the other axis stays valid.
BAD_INDEX_CALLS = {
    "site_union.sat": lambda c, bad: c.site_union(0, [1, bad]),
    "site_union.site": lambda c, bad: c.site_union(bad),
    "satellite_union.sat": lambda c, bad: c.satellite_union(bad),
    "satellite_union.site": lambda c, bad: c.satellite_union(0, [bad]),
    "coverage_fractions.sat": lambda c, bad: c.coverage_fractions([bad]),
    "satellite_active_fractions.sat": lambda c, bad: c.satellite_active_fractions([bad]),
    "satellite_active_fractions.site": lambda c, bad: c.satellite_active_fractions(None, [bad]),
    "visible_count_steps.sat": lambda c, bad: c.visible_count_steps(0, [bad]),
    "visible_count_steps.site": lambda c, bad: c.visible_count_steps(bad),
    "k_coverage_fraction.sat": lambda c, bad: c.k_coverage_fraction(0, 1, [bad]),
    "k_coverage_fraction.site": lambda c, bad: c.k_coverage_fraction(bad, 1),
    "sample_counts.sat": lambda c, bad: c.sample_counts([0.0], 0, [bad]),
    "pair.sat": lambda c, bad: c.pair(0, bad),
    "pair.site": lambda c, bad: c.pair(bad, 0),
    "restrict.sat": lambda c, bad: c.restrict([0, bad]),
    "withdrawal_coverage.sat": lambda c, bad: c.withdrawal_coverage([2, bad], 1),
}


class TestIndexValidation:
    """An out-of-range index raises IndexError instead of aliasing the
    windows of another (site, satellite) pair."""

    @pytest.mark.parametrize("call", sorted(BAD_INDEX_CALLS))
    def test_out_of_range_index_raises(self, call):
        contacts = _store(EDGE_WINDOWS, 2, 5)
        axis = call.rsplit(".", 1)[1]
        n = contacts.n_satellites if axis == "sat" else contacts.n_sites
        for bad in (n, n + 1, -1):
            with pytest.raises(IndexError, match=f"index {bad} is out of range"):
                BAD_INDEX_CALLS[call](contacts, bad)

    def test_pool_wide_query_raises(self):
        query = IntervalSubsetQuery.from_contacts(_store(EDGE_WINDOWS, 2, 5))
        with pytest.raises(IndexError):
            query.coverage_fractions([5])


class TestStoreAccessors:
    WINDOWS = {(0, 0): [(0.0, 10.0), (40.0, 50.0)], (1, 1): [(90.0, 100.0)]}

    def test_nbytes_counts_the_window_arrays(self):
        store = _store(self.WINDOWS, n_sites=2, n_sats=2)
        # Three windows: two float64 edges and two bool flags each, plus
        # one int64 offset per (site, satellite) pair and a sentinel.
        assert store.nbytes() == 3 * (8 + 8 + 1 + 1) + (2 * 2 + 1) * 8

    def test_pair_truncation_flags_horizon_clipped_edges(self):
        store = _store(self.WINDOWS, n_sites=2, n_sats=2)
        _, _, starts, ends = store.pair_windows(0, 0)
        assert list(starts) == [True, False]
        assert list(ends) == [False, False]
        _, _, starts, ends = store.pair_windows(1, 1)
        assert list(starts) == [False] and list(ends) == [True]
        _, _, starts, ends = store.pair_windows(0, 1)
        assert starts.size == ends.size == 0
