"""Tests for the vectorized visibility engine and packed visibility."""

import numpy as np
import pytest

from repro.constellation.satellite import Constellation, Satellite
from repro.constellation.walker import walker_delta
from repro.ground.sites import UserTerminal
from repro.orbits.elements import OrbitalElements
from repro.orbits.frames import eci_to_ecef, gmst_rad
from repro.orbits.propagator import BatchPropagator
from repro.orbits.topocentric import elevation_deg
from repro.sim.clock import TimeGrid
from repro.sim.kernels import SiteGeometry
from repro.sim.kernels.subsets import SubsetQuery
from repro.sim.visibility import (
    PackedVisibility,
    VisibilityEngine,
    coverage_cos_thresholds,
    or_popcount,
    packed_visibility,
)


@pytest.fixture
def equator_terminal():
    return UserTerminal("eq", 0.0, 0.0, min_elevation_deg=25.0)


class TestThresholds:
    def test_shape(self):
        thresholds = coverage_cos_thresholds(
            np.array([7.0e6, 7.2e6]), np.array([6.37e6] * 3), np.array([10.0, 25.0, 40.0])
        )
        assert thresholds.shape == (3, 2)

    def test_higher_mask_higher_threshold(self):
        thresholds = coverage_cos_thresholds(
            np.array([7.0e6]), np.array([6.37e6, 6.37e6]), np.array([10.0, 40.0])
        )
        assert thresholds[1, 0] > thresholds[0, 0]

    def test_higher_orbit_lower_threshold(self):
        thresholds = coverage_cos_thresholds(
            np.array([6.9e6, 7.6e6]), np.array([6.37e6]), np.array([25.0])
        )
        assert thresholds[0, 1] < thresholds[0, 0]

    def test_rejects_suborbital(self):
        with pytest.raises(ValueError, match="orbital radius"):
            coverage_cos_thresholds(
                np.array([6.0e6]), np.array([6.37e6]), np.array([25.0])
            )


class TestVisibilityAgainstReference:
    """The fast path must agree with explicit elevation computation."""

    def test_matches_elevation_reference(self, small_walker, taipei_terminal, tiny_grid):
        engine = VisibilityEngine(tiny_grid)
        visible = engine.visibility(small_walker, [taipei_terminal])  # (1, N, T)

        propagator = BatchPropagator(small_walker.elements)
        times = tiny_grid.times_s
        positions_eci = propagator.positions_eci(times)  # (N, T, 3)
        theta = gmst_rad(times, tiny_grid.gmst_at_epoch_rad)
        positions_ecef = eci_to_ecef(positions_eci, theta[None, :])
        site_ecef = taipei_terminal.position_ecef
        elevations = elevation_deg(site_ecef, positions_ecef)  # (N, T)
        reference = elevations >= taipei_terminal.min_elevation_deg
        mismatches = np.sum(visible[0] != reference)
        # Edge samples can flip due to the spherical site-radius convention;
        # allow a vanishing fraction.
        assert mismatches <= reference.size * 0.001

    def test_overhead_satellite_visible(self, equator_terminal):
        # A satellite crossing directly over the equator site at t=0.
        elements = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.1, raan_deg=0.0, mean_anomaly_deg=0.0
        )
        constellation = Constellation([Satellite(sat_id="S", elements=elements)])
        grid = TimeGrid(duration_s=60.0, step_s=30.0)
        engine = VisibilityEngine(grid)
        visible = engine.visibility(constellation, [equator_terminal])
        assert visible[0, 0, 0]

    def test_antipodal_satellite_invisible(self, equator_terminal):
        elements = OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.1, raan_deg=0.0, mean_anomaly_deg=180.0
        )
        constellation = Constellation([Satellite(sat_id="S", elements=elements)])
        grid = TimeGrid(duration_s=60.0, step_s=30.0)
        visible = VisibilityEngine(grid).visibility(constellation, [equator_terminal])
        assert not visible[0, 0, 0]

    def test_high_latitude_site_never_sees_low_inclination(self):
        """A 53-degree constellation cannot serve a polar site at 25 deg mask."""
        site = UserTerminal("arctic", 80.0, 0.0, min_elevation_deg=25.0)
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0, raan_deg=raan, mean_anomaly_deg=ma
            )
            for raan in (0.0, 90.0, 180.0, 270.0)
            for ma in (0.0, 120.0, 240.0)
        ]
        constellation = Constellation(
            [Satellite(sat_id=f"S{i}", elements=e) for i, e in enumerate(elements)]
        )
        grid = TimeGrid.hours(3.0, step_s=60.0)
        visible = VisibilityEngine(grid).visibility(constellation, [site])
        assert not visible.any()


class TestEngineReductions:
    def test_shapes(self, small_walker, taipei_terminal, short_grid):
        engine = VisibilityEngine(short_grid)
        sites = [taipei_terminal, UserTerminal("eq", 0.0, 0.0)]
        visible = engine.visibility(small_walker, sites)
        assert visible.shape == (2, 40, short_grid.count)
        assert engine.site_coverage(small_walker, sites).shape == (2, short_grid.count)
        assert engine.satellite_activity(small_walker, sites).shape == (
            40,
            short_grid.count,
        )
        counts = engine.visible_counts(small_walker, sites)
        assert counts.shape == (2, short_grid.count)

    def test_site_coverage_is_any(self, small_walker, taipei_terminal, short_grid):
        engine = VisibilityEngine(short_grid)
        visible = engine.visibility(small_walker, [taipei_terminal])
        coverage = engine.site_coverage(small_walker, [taipei_terminal])
        assert np.array_equal(coverage[0], visible[0].any(axis=0))

    def test_chunking_invariance(self, small_walker, taipei_terminal, short_grid):
        fine = VisibilityEngine(short_grid, chunk_size=7)
        coarse = VisibilityEngine(short_grid, chunk_size=100_000)
        assert np.array_equal(
            fine.visibility(small_walker, [taipei_terminal]),
            coarse.visibility(small_walker, [taipei_terminal]),
        )

    def test_rejects_no_sites(self, small_walker, short_grid):
        with pytest.raises(ValueError, match="at least one ground site"):
            VisibilityEngine(short_grid).visibility(small_walker, [])

    def test_accepts_elements_list(self, small_walker, taipei_terminal, tiny_grid):
        engine = VisibilityEngine(tiny_grid)
        via_constellation = engine.visibility(small_walker, [taipei_terminal])
        via_elements = engine.visibility(small_walker.elements, [taipei_terminal])
        assert np.array_equal(via_constellation, via_elements)


class TestPackedVisibility:
    @pytest.fixture
    def packed(self, small_walker, taipei_terminal, short_grid):
        sites = [taipei_terminal, UserTerminal("eq", 0.0, 0.0)]
        return (
            packed_visibility(small_walker, sites, short_grid),
            VisibilityEngine(short_grid).visibility(small_walker, sites),
        )

    def test_site_mask_matches_unpacked(self, packed):
        packed_vis, dense = packed
        for site in range(2):
            assert np.array_equal(
                packed_vis.site_mask(site), dense[site].any(axis=0)
            )

    def test_subset_mask_matches(self, packed):
        packed_vis, dense = packed
        subset = np.array([3, 7, 21])
        assert np.array_equal(
            packed_vis.site_mask(0, subset), dense[0, subset].any(axis=0)
        )

    def test_site_masks_all(self, packed):
        packed_vis, dense = packed
        masks = packed_vis.site_masks()
        assert np.array_equal(masks, dense.any(axis=1))

    def test_coverage_fractions(self, packed):
        packed_vis, dense = packed
        fractions = packed_vis.coverage_fractions()
        expected = dense.any(axis=1).mean(axis=1)
        assert np.allclose(fractions, expected)

    def test_satellite_active_fractions(self, packed):
        packed_vis, dense = packed
        fractions = packed_vis.satellite_active_fractions()
        expected = dense.any(axis=0).mean(axis=1)
        assert np.allclose(fractions, expected)

    def test_satellite_fractions_with_site_subset(self, packed):
        packed_vis, dense = packed
        fractions = packed_vis.satellite_active_fractions(site_indices=[1])
        expected = dense[1].mean(axis=1)
        assert np.allclose(fractions, expected)

    def test_empty_subset_is_uncovered(self, packed):
        packed_vis, _ = packed
        mask = packed_vis.site_mask(0, np.array([], dtype=int))
        assert not mask.any()
        assert np.all(packed_vis.coverage_fractions(np.array([], dtype=int)) == 0.0)

    def test_dimensions(self, packed):
        packed_vis, dense = packed
        assert packed_vis.n_sites == 2
        assert packed_vis.n_satellites == 40
        assert packed_vis.n_times == dense.shape[2]

    def test_rejects_bad_dtype(self, short_grid):
        with pytest.raises(ValueError, match="uint8"):
            PackedVisibility(np.zeros((1, 1, 10)), 80, short_grid)

    def test_rejects_short_packing(self, short_grid):
        with pytest.raises(ValueError, match="too short"):
            PackedVisibility(np.zeros((1, 1, 2), dtype=np.uint8), 100, short_grid)


class TestOrPopcount:
    def test_matches_unpacked_any_and_sum(self):
        rows = np.random.default_rng(11).integers(
            0, 256, size=(5, 17, 9), dtype=np.uint8
        )
        bits = np.unpackbits(rows, axis=2).astype(bool)
        for axis in (0, 1):
            got = or_popcount(rows, axis=axis)
            want = bits.any(axis=axis).sum(axis=1)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64

    def test_popcount_every_byte_value(self):
        # Each byte value alone on a singleton reduction axis: the count
        # must equal a bit-by-bit brute force for all 256 values.
        values = np.arange(256, dtype=np.uint8)
        want = [sum((int(value) >> bit) & 1 for bit in range(8)) for value in values]
        for axis, rows in ((0, values[None, :, None]), (1, values[:, None, None])):
            got = or_popcount(rows, axis=axis)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64


class TestPackedEmptySelections:
    """Regression: empty subset selections must be valid zero-result queries.

    Empty ``site_indices``/``sat_indices`` used to reduce over an empty
    axis (and a plain ``[]`` crashed outright with an IndexError because an
    empty Python list carries a float dtype); every reduction now returns
    explicit zeros of the right shape.
    """

    @pytest.fixture
    def packed(self, small_walker, taipei_terminal, short_grid):
        sites = [taipei_terminal, UserTerminal("eq", 0.0, 0.0)]
        return packed_visibility(small_walker, sites, short_grid)

    # Every reduction accepts the empty selection in all its spellings.
    EMPTY = [[], (), np.array([]), np.array([], dtype=np.intp)]

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_active_fractions_no_sites(self, packed, empty):
        fractions = packed.satellite_active_fractions(site_indices=empty)
        assert fractions.shape == (packed.n_satellites,)
        assert np.all(fractions == 0.0)

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_active_fractions_no_sats(self, packed, empty):
        fractions = packed.satellite_active_fractions(sat_indices=empty)
        assert fractions.shape == (0,)

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_masks_no_sites(self, packed, empty):
        masks = packed.satellite_masks(site_indices=empty)
        assert masks.shape == (packed.n_satellites, packed.n_times)
        assert masks.dtype == bool
        assert not masks.any()

    @pytest.mark.parametrize("empty", EMPTY)
    def test_satellite_masks_no_sats(self, packed, empty):
        masks = packed.satellite_masks(sat_indices=empty)
        assert masks.shape == (0, packed.n_times)
        assert masks.dtype == bool

    @pytest.mark.parametrize("empty", EMPTY)
    def test_both_axes_empty(self, packed, empty):
        assert packed.satellite_active_fractions(empty, empty).shape == (0,)
        assert packed.satellite_masks(empty, empty).shape == (0, packed.n_times)

    @pytest.mark.parametrize("empty", EMPTY)
    def test_site_reductions_accept_plain_empty(self, packed, empty):
        assert not packed.site_mask(0, empty).any()
        assert not packed.site_masks(empty).any()
        assert np.all(packed.coverage_fractions(empty) == 0.0)

    def test_subset_of_empty_site_selection_restricts_sats(self, packed):
        fractions = packed.satellite_active_fractions(
            sat_indices=[2, 5], site_indices=[]
        )
        assert fractions.shape == (2,)
        assert np.all(fractions == 0.0)

    def test_nonempty_selections_unchanged(self, packed):
        """The zero paths must not perturb ordinary subset reductions."""
        fractions = packed.satellite_active_fractions(
            sat_indices=[1, 3], site_indices=[0]
        )
        masks = packed.satellite_masks(sat_indices=[1, 3], site_indices=[0])
        assert np.allclose(fractions, masks.mean(axis=1))


class TestThresholdErrorPaths:
    """coverage_cos_thresholds domain errors and extreme elevation masks."""

    ORBIT = np.array([6.92e6])
    SITE = np.array([6.37e6])

    def test_rejects_equal_radii(self):
        with pytest.raises(ValueError, match="must exceed"):
            coverage_cos_thresholds(self.SITE, self.SITE, np.array([25.0]))

    def test_rejects_site_above_orbit(self):
        with pytest.raises(ValueError, match="must exceed"):
            coverage_cos_thresholds(self.SITE, self.ORBIT, np.array([25.0]))

    def test_rejects_any_bad_pair_in_batch(self):
        """One suborbital pair poisons the whole batch, loudly."""
        radii = np.array([6.92e6, 6.0e6])
        with pytest.raises(ValueError, match="must exceed"):
            coverage_cos_thresholds(radii, self.SITE, np.array([25.0]))

    def test_zero_mask_threshold_is_horizon_geometry(self):
        thresholds = coverage_cos_thresholds(self.ORBIT, self.SITE, np.array([0.0]))
        psi = np.arccos(self.SITE[0] / self.ORBIT[0])
        assert np.isclose(thresholds[0, 0], np.cos(psi))

    def test_near_vertical_mask_approaches_one(self):
        thresholds = coverage_cos_thresholds(
            self.ORBIT, self.SITE, np.array([89.9])
        )
        assert 0.999999 < thresholds[0, 0] <= 1.0

    def test_thresholds_monotonic_in_mask(self):
        masks = np.linspace(0.0, 89.0, 90)
        thresholds = coverage_cos_thresholds(
            self.ORBIT, np.full(masks.size, self.SITE[0]), masks
        )[:, 0]
        assert np.all(np.diff(thresholds) > 0.0)

    def test_thresholds_always_in_unit_interval(self):
        radii = np.linspace(6.6e6, 8.0e6, 7)
        masks = np.linspace(0.0, 89.9, 5)
        thresholds = coverage_cos_thresholds(
            radii, np.full(masks.size, self.SITE[0]), masks
        )
        assert np.all(thresholds >= -1.0)
        assert np.all(thresholds <= 1.0)


class TestChunkBoundaryIdentity:
    """chunk_size is an execution knob: any split must yield the same tensor."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 8, 13, 64, 10_000])
    def test_every_chunk_size_identical(
        self, small_walker, taipei_terminal, short_grid, chunk_size
    ):
        reference = VisibilityEngine(short_grid).visibility(
            small_walker, [taipei_terminal]
        )
        chunked = VisibilityEngine(short_grid, chunk_size=chunk_size).visibility(
            small_walker, [taipei_terminal]
        )
        assert np.array_equal(reference, chunked)

    def test_chunk_equal_to_grid_count(self, small_walker, taipei_terminal, short_grid):
        exact = VisibilityEngine(
            short_grid, chunk_size=short_grid.count
        ).visibility(small_walker, [taipei_terminal])
        reference = VisibilityEngine(short_grid).visibility(
            small_walker, [taipei_terminal]
        )
        assert np.array_equal(exact, reference)

    def test_rejects_nonpositive_chunk(self, short_grid):
        with pytest.raises(ValueError, match="chunk_size"):
            VisibilityEngine(short_grid, chunk_size=0)

    @pytest.mark.parametrize("chunk_size", [8, 24, 1000])
    def test_packed_chunk_identity(
        self, small_walker, taipei_terminal, short_grid, chunk_size
    ):
        """Packing in chunks must agree with the unpacked tensor bit-for-bit."""
        dense = VisibilityEngine(short_grid).visibility(
            small_walker, [taipei_terminal]
        )
        packed = packed_visibility(
            small_walker, [taipei_terminal], short_grid, chunk_size=chunk_size
        )
        assert np.array_equal(packed.site_masks(), dense.any(axis=1))
        assert np.array_equal(packed.satellite_masks(), dense.any(axis=0))


#: Five sites a 53 deg shell serves, in no particular order.
LAYOUT_SITES = [
    UserTerminal("taipei-ish", 25.0, 121.5),
    UserTerminal("equator", 0.0, 10.0),
    UserTerminal("mid", 45.0, -70.0),
    UserTerminal("sydney-ish", -33.9, 151.2),
    UserTerminal("london-ish", 51.5, -0.1),
]

#: Satellite selections of the 40-satellite walker: unsorted, with
#: duplicates, empty in two spellings, and everything (None).
LAYOUT_SATS = {
    "unsorted": [31, 2, 17, 9, 0, 39, 22],
    "duplicates": [5, 30, 5, 12, 5],
    "empty-list": [],
    "empty-array": np.array([], dtype=np.intp),
    "all": None,
}

#: Site selections: scattered and unsorted (fig3 only ever passes
#: contiguous prefixes), duplicated, a single site, empty and all.
LAYOUT_SITE_LISTS = {
    "scattered": [4, 0, 2],
    "reversed-pair": [3, 1],
    "duplicates": [1, 4, 1],
    "single": [2],
    "empty": [],
    "all": None,
}


@pytest.fixture(scope="module")
def layout_world():
    """(propagator, grid, built store, dense (S, N, T) tensor)."""
    elements = walker_delta(40, 8, 1, inclination_deg=53.0, altitude_km=550.0)
    grid = TimeGrid.hours(6.0, step_s=60.0)
    propagator = BatchPropagator(elements)
    built = packed_visibility(propagator, LAYOUT_SITES, grid)
    dense = VisibilityEngine(grid).visibility(propagator, LAYOUT_SITES)
    assert dense.any(axis=(1, 2)).all()  # Every site sees something.
    return propagator, grid, built, dense


def _ids(selection, n):
    return np.arange(n) if selection is None else np.asarray(selection, dtype=np.intp)


def _fractions(mask, n_times):
    return np.count_nonzero(mask, axis=-1) / float(n_times)


class TestSatelliteMajorLayout:
    """The store is one C-contiguous (N, S, B) buffer; ``packed`` is its
    (S, N, B) view.  Every query must equal the unpacked boolean
    reduction it stands for, on built and hand-built stores alike."""

    def test_build_makes_no_copy(self, layout_world):
        _, _, built, dense = layout_world
        assert built.by_satellite.flags.c_contiguous
        assert np.shares_memory(built.packed, built.by_satellite)
        assert built.packed.shape == (5, 40, (dense.shape[2] + 7) // 8)
        assert np.array_equal(built.packed, np.packbits(dense, axis=2))

    def test_hand_built_site_major_input(self, layout_world):
        _, grid, built, _ = layout_world
        site_major = np.ascontiguousarray(built.packed)
        store = PackedVisibility(site_major, grid.count, grid)
        assert store.by_satellite.flags.c_contiguous
        assert np.array_equal(store.by_satellite, built.by_satellite)
        assert np.array_equal(store.packed, site_major)

    @pytest.mark.parametrize("store_kind", ["built", "hand-built"])
    @pytest.mark.parametrize("sats", sorted(LAYOUT_SATS))
    @pytest.mark.parametrize("sites", sorted(LAYOUT_SITE_LISTS))
    def test_queries_match_unpacked(self, layout_world, store_kind, sats, sites):
        _, grid, built, dense = layout_world
        store = built
        if store_kind == "hand-built":
            store = PackedVisibility(np.ascontiguousarray(built.packed), grid.count, grid)
        n_sites, n_sats, n_times = dense.shape
        sat_sel, site_sel = LAYOUT_SATS[sats], LAYOUT_SITE_LISTS[sites]
        sat_ids, site_ids = _ids(sat_sel, n_sats), _ids(site_sel, n_sites)

        covered = dense[:, sat_ids].any(axis=1)  # (S, T)
        np.testing.assert_array_equal(store.site_masks(sat_sel), covered)
        np.testing.assert_array_equal(
            store.coverage_fractions(sat_sel), _fractions(covered, n_times)
        )
        for site in site_ids:
            np.testing.assert_array_equal(store.site_mask(site, sat_sel), covered[site])

        active = dense[np.ix_(site_ids, sat_ids)].any(axis=0)  # (n, T)
        np.testing.assert_array_equal(store.satellite_masks(sat_sel, site_sel), active)
        np.testing.assert_array_equal(
            store.satellite_active_fractions(sat_sel, site_sel),
            _fractions(active, n_times),
        )

    @pytest.mark.parametrize("sats", sorted(LAYOUT_SATS))
    @pytest.mark.parametrize("sites", sorted(LAYOUT_SITE_LISTS))
    def test_subset_query_paths_match_unpacked(self, layout_world, sats, sites):
        """``SubsetQuery.from_visibility`` (gathered rows) and
        ``SubsetQuery.build`` (fleet-scoped stream) answer alike."""
        propagator, grid, built, dense = layout_world
        fleet = np.array([0, 2, 5, 9, 12, 17, 22, 30, 31, 39])
        queries = {
            "gathered": SubsetQuery.from_visibility(built, fleet[::-1]),
            "built": SubsetQuery.build(
                propagator, SiteGeometry(LAYOUT_SITES, grid), grid, fleet
            ),
        }
        n_sites, _, n_times = dense.shape
        sat_sel, site_sel = LAYOUT_SATS[sats], LAYOUT_SITE_LISTS[sites]
        sat_ids = fleet if sat_sel is None else np.asarray(sat_sel, dtype=np.intp)
        site_ids = _ids(site_sel, n_sites)
        covered = dense[:, sat_ids].any(axis=1)
        active = dense[np.ix_(site_ids, sat_ids)].any(axis=0)
        counts = dense[:, sat_ids].sum(axis=1)  # (S, T)
        for query in queries.values():
            assert query.by_satellite.flags.c_contiguous
            np.testing.assert_array_equal(
                query.coverage_fractions(sat_sel), _fractions(covered, n_times)
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(sat_sel, site_sel),
                _fractions(active, n_times),
            )
            for site in site_ids:
                np.testing.assert_array_equal(
                    query.visible_counts(site, sat_sel), counts[site]
                )
                assert query.k_coverage_fraction(site, 2, sat_sel) == (
                    np.count_nonzero(counts[site] >= 2) / n_times
                )


class TestWithdrawalCoverage:
    """One gather answers a withdrawal bit for bit like two
    ``coverage_fractions`` calls: the whole order and its kept tail."""

    @pytest.mark.parametrize("size", [0, 1, 7, 40])
    def test_matches_two_coverage_calls(self, layout_world, size):
        _, _, built, _ = layout_world
        rng = np.random.default_rng(size)
        order = rng.permutation(40)[:size]
        for withdrawn in sorted({0, size // 2, size}):
            base, kept = built.withdrawal_coverage(order, withdrawn)
            np.testing.assert_array_equal(base, built.coverage_fractions(order))
            np.testing.assert_array_equal(
                kept, built.coverage_fractions(order[withdrawn:])
            )

    def test_empty_order(self, layout_world):
        _, _, built, _ = layout_world
        for order in ([], np.array([], dtype=np.intp)):
            base, kept = built.withdrawal_coverage(order, 0)
            assert base.tolist() == kept.tolist() == [0.0] * built.n_sites

    @pytest.mark.parametrize("withdrawn", [-1, 4])
    def test_withdrawn_outside_order_raises(self, layout_world, withdrawn):
        _, _, built, _ = layout_world
        with pytest.raises(ValueError, match="withdrawn"):
            built.withdrawal_coverage([3, 1, 2], withdrawn)


#: Every PackedVisibility query with one bad index on one axis.
BAD_INDEX_CALLS = {
    "site_mask.sat": lambda v, bad: v.site_mask(0, [1, bad]),
    "site_mask.site": lambda v, bad: v.site_mask(bad),
    "site_masks.sat": lambda v, bad: v.site_masks([bad, 2]),
    "coverage_fractions.sat": lambda v, bad: v.coverage_fractions([bad]),
    "satellite_active_fractions.sat": lambda v, bad: v.satellite_active_fractions([bad]),
    "satellite_active_fractions.site": lambda v, bad: v.satellite_active_fractions(
        [5], [0, bad]
    ),
    "satellite_masks.sat": lambda v, bad: v.satellite_masks([3, bad], [0]),
    "satellite_masks.site": lambda v, bad: v.satellite_masks(None, [bad]),
    "withdrawal_coverage.sat": lambda v, bad: v.withdrawal_coverage([2, bad], 1),
}


class TestPackedIndexValidation:
    """An out-of-range index raises IndexError instead of reading another
    satellite or site (numpy would count a negative one from the end)."""

    @pytest.mark.parametrize("call", sorted(BAD_INDEX_CALLS))
    def test_out_of_range_index_raises(self, layout_world, call):
        _, _, built, _ = layout_world
        axis = call.rsplit(".", 1)[1]
        n = built.n_satellites if axis == "sat" else built.n_sites
        name = "satellite" if axis == "sat" else "site"
        for bad in (n, n + 1, -1):
            with pytest.raises(IndexError, match=f"{name} index {bad} is out of range"):
                BAD_INDEX_CALLS[call](built, bad)
