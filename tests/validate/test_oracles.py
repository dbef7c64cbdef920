"""Tests for the differential oracle cross-checks.

Each oracle is exercised twice: once on healthy inputs (the check must
pass) and once with a fault injected (the check must have teeth and fail).
"""

import numpy as np
import pytest

from repro.validate import gen, oracles


class TestPropagatorOracle:
    def test_passes_on_healthy_paths(self):
        check = oracles.check_propagator_agreement(
            seed=7, n_satellites=4, duration_s=7_200.0, step_s=600.0
        )
        assert check.ok, check.details
        assert check.details["max_error_m"] < check.details["threshold_m"]
        assert check.details["worst_batch"] in ("circular", "mixed")

    def test_fails_when_threshold_impossible(self):
        """A sub-float-precision threshold must trip the gate (teeth)."""
        check = oracles.check_propagator_agreement(
            seed=7, n_satellites=2, duration_s=3_600.0, step_s=600.0,
            max_error_m=0.0,
        )
        assert not check.ok


class TestMaxRunLength:
    def test_empty_mask(self):
        assert oracles._max_run_length(np.zeros((2, 5), dtype=bool)) == 0

    def test_full_mask(self):
        assert oracles._max_run_length(np.ones((2, 5), dtype=bool)) == 5

    def test_interior_run(self):
        mask = np.array([[False, True, True, True, False, True]])
        assert oracles._max_run_length(mask) == 3


class TestEdgeAdjacent:
    def test_endpoints_always_adjacent(self):
        near = oracles._edge_adjacent(np.zeros((1, 6), dtype=bool))
        assert near[0, 0] and near[0, -1]
        assert not near[0, 2]

    def test_transition_marks_both_sides(self):
        mask = np.array([[False, False, True, True, False, False, False]])
        near = oracles._edge_adjacent(mask)
        # Samples 1-4 touch the two transitions; 5 is interior (endpoint 6 ok).
        assert near[0, 1] and near[0, 2] and near[0, 3] and near[0, 4]
        assert not near[0, 5]

    def test_union_over_masks(self):
        a = np.array([[False, True, False, False, False, False]])
        b = np.array([[False, False, False, True, False, False]])
        near = oracles._edge_adjacent(a, b)
        assert near[0, 1] and near[0, 3]


class TestVisibilityOracle:
    def test_passes_on_circular_domain(self):
        check = oracles.check_visibility_oracle(
            seed=11, n_satellites=8, n_sites=3, duration_s=7_200.0, step_s=60.0
        )
        assert check.ok, check.details
        assert check.details["interior_disagreements"] == 0
        assert (
            check.details["max_disagreement_run_steps"]
            <= check.details["edge_budget_steps"]
        )

    def test_fails_on_interior_disagreement(self, monkeypatch):
        """Shifting the exact-elevation reference must break the oracle."""
        real_elevation = oracles.elevation_deg

        def shifted(site_ecef, sat_ecef):
            return real_elevation(site_ecef, sat_ecef) - 10.0

        monkeypatch.setattr(oracles, "elevation_deg", shifted)
        check = oracles.check_visibility_oracle(
            seed=11, n_satellites=8, n_sites=3, duration_s=7_200.0, step_s=60.0
        )
        assert not check.ok
        assert check.details["disagreeing_samples"] > 0


class TestPackedOracle:
    def test_passes_including_empty_selections(self):
        check = oracles.check_packed_agreement(
            seed=13, n_satellites=12, n_sites=4, duration_s=3_600.0,
            step_s=60.0, n_subsets=3,
        )
        assert check.ok, check.details
        # (None, None) + three empty-selection spellings + 3 * n_subsets.
        assert check.details["selections"] == 13
        assert check.details["batched_rows"] == 3
        assert check.details["mismatches"] == []

    def test_reduction_reference_catches_corruption(self):
        """Flipping one packed bit must surface as a reduction mismatch."""
        rng = gen.trial_rng(13, 3)
        elements = gen.random_elements(rng, 6, max_eccentricity=0.0)
        sites = gen.random_sites(rng, 3)
        grid = gen.random_grid(rng, min_samples=32, max_samples=64)

        from repro.sim.visibility import VisibilityEngine, packed_visibility

        visible = VisibilityEngine(grid).visibility(elements, sites)
        packed = packed_visibility(elements, sites, grid)
        packed.packed[0, 0, 0] ^= 0x80  # Flip the first sample's bit.
        mismatches = oracles._unpacked_reductions_match(packed, visible, None, None)
        assert mismatches

    def test_batched_reference_catches_corruption(self):
        """A flipped bit of a satellite in one row of a batched query
        surfaces as that row's mismatch."""
        rng = gen.trial_rng(13, 3)
        elements = gen.random_elements(rng, 6, max_eccentricity=0.0)
        sites = gen.random_sites(rng, 3)
        grid = gen.random_grid(rng, min_samples=32, max_samples=64)

        from repro.sim.visibility import VisibilityEngine, packed_visibility

        visible = VisibilityEngine(grid).visibility(elements, sites)
        packed = packed_visibility(elements, sites, grid)
        orders = np.array([[0, 1, 2], [3, 4, 5]])
        assert oracles._batched_reductions_match(packed, visible, orders) == []
        packed.packed[0, 4, 0] ^= 0x80  # Flip satellite 4's first bit.
        mismatches = oracles._batched_reductions_match(packed, visible, orders)
        assert "coverage_fractions[row=1]" in mismatches
        assert "coverage_fractions[row=0]" not in mismatches


class TestGenerators:
    def test_elements_in_domain(self):
        rng = gen.trial_rng(3, 9)
        elements = gen.random_elements(rng, 50, gen.MAX_DOMAIN_ECCENTRICITY)
        for element in elements:
            altitude_km = (element.semi_major_axis_m - 6.371e6) / 1e3
            assert 350.0 < altitude_km < 1500.0
            assert 0.0 <= element.eccentricity <= gen.MAX_DOMAIN_ECCENTRICITY
            assert (
                gen.INCLINATION_DEG_RANGE[0]
                <= element.inclination_deg
                <= gen.INCLINATION_DEG_RANGE[1]
            )

    def test_circular_by_default(self):
        rng = gen.trial_rng(3, 10)
        elements = gen.random_elements(rng, 20)
        assert all(element.eccentricity == 0.0 for element in elements)

    def test_grid_steps_are_integer_seconds(self):
        rng = gen.trial_rng(3, 11)
        for _ in range(20):
            grid = gen.random_grid(rng)
            assert grid.step_s == int(grid.step_s)
            assert grid.count >= 16

    def test_trial_rng_is_stateless(self):
        a = gen.trial_rng(42, 1, 2, 3).uniform(size=4)
        b = gen.trial_rng(42, 1, 2, 3).uniform(size=4)
        c = gen.trial_rng(42, 1, 2, 4).uniform(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sites_have_valid_masks(self):
        rng = gen.trial_rng(3, 12)
        sites = gen.random_sites(rng, 30)
        for site in sites:
            assert -85.0 <= site.latitude_deg <= 85.0
            assert 5.0 <= site.min_elevation_deg <= 40.0


class TestIntervalOracle:
    def test_passes_on_healthy_engines(self):
        check = oracles.check_interval_agreement(
            seed=7, n_satellites=8, n_sites=3,
            duration_s=10_800.0, step_s=120.0,
        )
        assert check.ok, check.details["mismatches"]
        assert check.details["contacts"] > 0
        assert check.details["mismatches"] == []

    def test_fails_without_refinement_budget(self, monkeypatch):
        """Shifting every refined edge by two steps must trip the
        resampling identity (teeth)."""
        from repro.sim import intervals as intervals_module

        original = intervals_module.find_contact_intervals

        def corrupted(*args, **kwargs):
            contacts = original(*args, **kwargs)
            contacts.rise_s = contacts.rise_s + 240.0
            contacts.set_s = contacts.set_s + 240.0
            return contacts

        monkeypatch.setattr(
            intervals_module, "find_contact_intervals", corrupted
        )
        check = oracles.check_interval_agreement(
            seed=7, n_satellites=8, n_sites=3,
            duration_s=10_800.0, step_s=120.0,
        )
        assert not check.ok
        assert any(
            "pair_resample" in m for m in check.details["mismatches"]
        )

    def test_fails_on_drifted_satellite_activity(self, monkeypatch):
        """Activity fractions off by more than the edge budget must trip
        the check of the reduction Fig. 3 reads (teeth)."""
        from repro.sim.intervals import ContactIntervals

        original = ContactIntervals.satellite_active_fractions

        def drifted(self, *args, **kwargs):
            return original(self, *args, **kwargs) + 0.5

        monkeypatch.setattr(
            ContactIntervals, "satellite_active_fractions", drifted
        )
        check = oracles.check_interval_agreement(
            seed=7, n_satellites=8, n_sites=3,
            duration_s=10_800.0, step_s=120.0,
        )
        assert not check.ok
        assert any(
            "satellite_active" in m for m in check.details["mismatches"]
        )

    def test_vacuous_comparison_fails(self, monkeypatch):
        """Zero contacts (e.g. a broken scan) must fail, not pass."""
        from repro.ground.sites import GroundSite

        def unreachable_sites(rng, count):
            return [
                GroundSite(
                    name=f"blind-{index}", latitude_deg=0.0,
                    longitude_deg=float(index), min_elevation_deg=89.99,
                )
                for index in range(count)
            ]

        monkeypatch.setattr(gen, "random_sites", unreachable_sites)
        check = oracles.check_interval_agreement(
            seed=7, n_satellites=2, n_sites=1,
            duration_s=3_600.0, step_s=600.0,
        )
        assert not check.ok
        assert check.details["contacts"] == 0
        assert any("vacuous" in m for m in check.details["mismatches"])


class TestFusedOracle:
    SMALL = dict(
        n_satellites=12, n_sites=3, duration_s=3_600.0, chunk_sizes=(1, 13, 1_000_000)
    )

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_passes_with_cull_and_exact_path_exercised(self, seed):
        check = oracles.check_fused_agreement(seed, **self.SMALL)
        assert check.ok, check.details
        # 12 random + 4 injected low-inclination satellites; 3 random
        # sites + the polar cull site + the near-threshold site.
        assert check.details["satellites"] == 16
        assert check.details["sites"] == 5
        assert check.details["culled_pairs"] > 0
        assert check.details["culled_satellites"] > 0
        assert check.details["exact_rechecks"] > 0

    @pytest.mark.parametrize(
        "reduction, label",
        [
            ("stream_site_coverage", "site_coverage"),
            ("stream_satellite_activity", "satellite_activity"),
            ("stream_visible_counts", "visible_counts"),
        ],
    )
    def test_catches_a_corrupted_stream_reduction(self, reduction, label, monkeypatch):
        real = getattr(oracles.kernels, reduction)

        def corrupted(plan):
            out = np.array(real(plan))
            out.flat[0] = not out.flat[0] if out.dtype == bool else out.flat[0] + 1
            return out

        monkeypatch.setattr(oracles.kernels, reduction, corrupted)
        check = oracles.check_fused_agreement(3, **self.SMALL)
        assert not check.ok
        # Every chunk size, primed and unprimed, reports the fault.
        assert sum(m.startswith(f"{label} (") for m in check.details["mismatches"]) == 6

    def test_catches_corrupted_packed_bits(self, monkeypatch):
        real = oracles.packed_visibility

        def corrupted(*args, **kwargs):
            packed = real(*args, **kwargs)
            packed.packed[0, 0, 0] ^= 0x80
            return packed

        monkeypatch.setattr(oracles, "packed_visibility", corrupted)
        check = oracles.check_fused_agreement(3, **self.SMALL)
        assert not check.ok
        assert any(m.startswith("packed_bits (") for m in check.details["mismatches"])
