"""Brute-force agreement tests for the subset-query batch kernels.

Both engines' subset queries (:class:`repro.sim.kernels.subsets.SubsetQuery`
over packed bits, :class:`repro.sim.intervals.IntervalSubsetQuery` over CSR
windows) are held to the same contract: for every subset — random, empty,
or the full fleet — the query answers must be bit-identical to the
underlying full structures' reductions, and to brute-force unpacked boolean
arithmetic.  The fleet-scoped *build* paths (a streamed packed build / a
CSR restriction) must match the gather-from-full paths bit for bit.
"""

import numpy as np
import pytest

from repro.orbits.propagator import BatchPropagator
from repro.sim.clock import TimeGrid
from repro.sim.intervals import IntervalSubsetQuery, find_contact_intervals
from repro.sim.kernels import SiteGeometry
from repro.sim.kernels.subsets import SubsetQuery, query_for_sites
from repro.sim.visibility import packed_visibility
from repro.validate import gen

N_SATELLITES = 24
N_SITES = 4
SEED = 77


@pytest.fixture(scope="module")
def world():
    """A small all-circular batch (circular => fleet-scoped builds are
    bit-identical to full-pool row gathers) with its grid artifacts."""
    rng = gen.trial_rng(SEED, 9, 0)
    elements = list(gen.random_elements(rng, N_SATELLITES, 0.0))
    sites = list(gen.random_sites(rng, N_SITES))
    grid = TimeGrid(duration_s=7_200.0, step_s=60.0)
    propagator = BatchPropagator(elements)
    visibility = packed_visibility(propagator, sites, grid)
    contacts = find_contact_intervals(propagator, sites, grid)
    return propagator, sites, grid, visibility, contacts


def _subsets(rng, fleet):
    """Random subsets of a fleet, plus the empty and full edge cases."""
    random = [
        rng.choice(fleet, size=int(rng.integers(1, fleet.size + 1)),
                   replace=False)
        for _ in range(8)
    ]
    return random + [np.asarray(fleet), fleet[:0]]


def _dense_bits(query):
    """Unpack a query's packed rows to (S, F, T) booleans — the brute force."""
    bits = np.unpackbits(query.packed, axis=2)[:, :, : query.n_times]
    return bits.astype(bool)


class TestSubsetQueryGrid:
    def test_pool_wide_matches_packed_reductions(self, world):
        _, _, _, visibility, _ = world
        rng = np.random.default_rng(SEED)
        query = SubsetQuery.from_visibility(visibility)
        for subset in _subsets(rng, np.arange(N_SATELLITES)):
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                visibility.coverage_fractions(subset),
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset),
                visibility.satellite_active_fractions(subset),
            )

    def test_fleet_scoped_matches_brute_force(self, world):
        _, _, _, visibility, _ = world
        rng = np.random.default_rng(SEED + 1)
        fleet = np.sort(rng.choice(N_SATELLITES, size=14, replace=False))
        query = SubsetQuery.from_visibility(visibility, fleet)
        dense = _dense_bits(query)  # (S, F, T) for the fleet
        for subset in _subsets(rng, fleet):
            local = np.searchsorted(fleet, subset)
            mask = dense[:, local, :]
            covered = (
                mask.any(axis=1).mean(axis=1)
                if subset.size
                else np.zeros(N_SITES)
            )
            np.testing.assert_array_equal(
                query.coverage_fractions(subset), covered
            )
            active = (
                mask.any(axis=0).mean(axis=1)
                if subset.size
                else np.zeros(0)
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset), active
            )

    def test_k_coverage_matches_brute_force(self, world):
        _, _, _, visibility, _ = world
        rng = np.random.default_rng(SEED + 2)
        fleet = np.sort(rng.choice(N_SATELLITES, size=12, replace=False))
        query = SubsetQuery.from_visibility(visibility, fleet)
        dense = _dense_bits(query)
        subset = rng.choice(fleet, size=7, replace=False)
        local = np.searchsorted(fleet, subset)
        counts = dense[:, local, :].sum(axis=1)
        for site in range(N_SITES):
            np.testing.assert_array_equal(
                query.visible_counts(site, subset), counts[site]
            )
            for k in (1, 2, 3):
                assert query.k_coverage_fraction(site, k, subset) == float(
                    (counts[site] >= k).mean()
                )

    def test_streamed_build_bit_identical_to_gather(self, world):
        propagator, sites, grid, visibility, _ = world
        rng = np.random.default_rng(SEED + 3)
        fleet = np.sort(rng.choice(N_SATELLITES, size=10, replace=False))
        gathered = SubsetQuery.from_visibility(visibility, fleet)
        geometry = SiteGeometry(sites, grid)
        built = SubsetQuery.build(propagator, geometry, grid, fleet)
        np.testing.assert_array_equal(built.packed, gathered.packed)

    def test_site_restricted_view(self, world):
        _, _, _, visibility, _ = world
        query = SubsetQuery.from_visibility(visibility)
        sliced = query_for_sites(query, [2, 0])
        np.testing.assert_array_equal(
            sliced.coverage_fractions(None),
            query.coverage_fractions(None)[[2, 0]],
        )

    def test_out_of_fleet_subset_rejected(self, world):
        _, _, _, visibility, _ = world
        fleet = np.arange(5)
        query = SubsetQuery.from_visibility(visibility, fleet)
        with pytest.raises(KeyError):
            query.coverage_fractions(np.array([3, 7]))

    def test_duplicate_fleet_rejected(self, world):
        _, _, _, visibility, _ = world
        with pytest.raises(ValueError):
            SubsetQuery.from_visibility(visibility, np.array([1, 1, 2]))

    @pytest.mark.parametrize("bad", [-1, N_SATELLITES])
    def test_pool_wide_query_rejects_out_of_range(self, world, bad):
        _, _, _, visibility, _ = world
        query = SubsetQuery.from_visibility(visibility)
        with pytest.raises(IndexError, match=f"satellite index {bad} is out"):
            query.coverage_fractions([0, bad])
        with pytest.raises(IndexError, match=f"satellite index {bad} is out"):
            query.k_coverage_fraction(0, 1, [bad])
        with pytest.raises(IndexError, match="site index -1 is out"):
            query.satellite_active_fractions([0], [-1])


class TestIntervalSubsetQuery:
    def test_pool_wide_matches_contacts_reductions(self, world):
        _, _, _, _, contacts = world
        rng = np.random.default_rng(SEED + 4)
        query = IntervalSubsetQuery.from_contacts(contacts)
        for subset in _subsets(rng, np.arange(N_SATELLITES)):
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                contacts.coverage_fractions(subset),
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset),
                contacts.satellite_active_fractions(subset),
            )

    def test_restricted_bit_identical_to_full(self, world):
        """The fleet-restricted precompute answers every subset with the
        exact bits the full CSR reduction produces."""
        _, _, _, _, contacts = world
        rng = np.random.default_rng(SEED + 5)
        fleet = np.sort(rng.choice(N_SATELLITES, size=13, replace=False))
        query = IntervalSubsetQuery.from_contacts(contacts, fleet)
        for subset in _subsets(rng, fleet):
            np.testing.assert_array_equal(
                query.coverage_fractions(subset),
                contacts.coverage_fractions(subset),
            )
            np.testing.assert_array_equal(
                query.satellite_active_fractions(subset),
                contacts.satellite_active_fractions(subset),
            )
        for site in range(N_SITES):
            subset = rng.choice(fleet, size=6, replace=False)
            assert query.k_coverage_fraction(
                site, 2, subset
            ) == contacts.k_coverage_fraction(site, 2, subset)

    def test_cold_fleet_scoped_build_matches_restriction(self, world):
        """Finding contacts for only the fleet's satellites produces the
        same windows as restricting the full-pool CSR."""
        propagator, sites, grid, _, contacts = world
        rng = np.random.default_rng(SEED + 6)
        fleet = np.sort(rng.choice(N_SATELLITES, size=9, replace=False))
        cold = find_contact_intervals(propagator.subset(fleet), sites, grid)
        warm = contacts.restrict(fleet)
        np.testing.assert_array_equal(cold.rise_s, warm.rise_s)
        np.testing.assert_array_equal(cold.set_s, warm.set_s)
        np.testing.assert_array_equal(cold.pair_offsets, warm.pair_offsets)

    def test_out_of_fleet_subset_rejected(self, world):
        _, _, _, _, contacts = world
        query = IntervalSubsetQuery.from_contacts(contacts, np.arange(5))
        with pytest.raises(KeyError):
            query.coverage_fractions(np.array([2, 9]))

    def test_duplicate_fleet_rejected(self, world):
        _, _, _, _, contacts = world
        with pytest.raises(ValueError):
            IntervalSubsetQuery.from_contacts(contacts, np.array([0, 0]))


class TestQueryShapes:
    """Both engines report the same (sites, fleet) extent for one fleet."""

    @pytest.mark.parametrize("fleet_size", [None, 5])
    def test_grid_and_interval_queries_agree_on_extent(self, world, fleet_size):
        _, _, _, visibility, contacts = world
        fleet = None if fleet_size is None else np.arange(fleet_size) * 2
        grid = SubsetQuery.from_visibility(visibility, fleet)
        analytic = IntervalSubsetQuery.from_contacts(contacts, fleet)
        expected = N_SATELLITES if fleet is None else fleet_size
        assert grid.n_satellites == analytic.n_satellites == expected
        assert grid.n_sites == analytic.n_sites == N_SITES
