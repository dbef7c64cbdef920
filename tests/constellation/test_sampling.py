"""Tests for constellation sampling."""

import numpy as np
import pytest

from repro.constellation.sampling import sample_constellation, sample_indices


class TestSampleConstellation:
    def test_size(self, small_walker, rng):
        assert len(sample_constellation(small_walker, 10, rng)) == 10

    def test_without_replacement(self, small_walker, rng):
        sampled = sample_constellation(small_walker, 40, rng)
        assert len({satellite.sat_id for satellite in sampled}) == 40

    def test_subset_of_source(self, small_walker, rng):
        sampled = sample_constellation(small_walker, 15, rng)
        source_ids = {satellite.sat_id for satellite in small_walker}
        assert all(satellite.sat_id in source_ids for satellite in sampled)

    def test_seeded_reproducible(self, small_walker):
        a = sample_constellation(small_walker, 10, np.random.default_rng(1))
        b = sample_constellation(small_walker, 10, np.random.default_rng(1))
        assert [s.sat_id for s in a] == [s.sat_id for s in b]

    def test_different_seeds_differ(self, small_walker):
        a = sample_constellation(small_walker, 10, np.random.default_rng(1))
        b = sample_constellation(small_walker, 10, np.random.default_rng(2))
        assert [s.sat_id for s in a] != [s.sat_id for s in b]

    def test_oversample_rejected(self, small_walker, rng):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_constellation(small_walker, 41, rng)

    def test_negative_rejected(self, small_walker, rng):
        with pytest.raises(ValueError, match="non-negative"):
            sample_constellation(small_walker, -1, rng)

    def test_zero_sample(self, small_walker, rng):
        assert len(sample_constellation(small_walker, 0, rng)) == 0


class TestSampleIndices:
    def test_sorted_unique_in_range(self, small_walker, rng):
        indices = sample_indices(small_walker, 12, rng)
        assert indices.shape == (12,)
        assert np.all(np.diff(indices) > 0)
        assert indices.min() >= 0 and indices.max() < len(small_walker)

    def test_same_draw_as_sample_constellation(self, small_walker):
        indices = sample_indices(small_walker, 10, np.random.default_rng(7))
        sampled = sample_constellation(small_walker, 10, np.random.default_rng(7))
        assert [small_walker[int(i)].sat_id for i in indices] == [
            satellite.sat_id for satellite in sampled
        ]

    def test_same_rng_consumption(self, small_walker):
        """Downstream draws are unperturbed by taking the indices path."""
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        sample_indices(small_walker, 10, a)
        sample_constellation(small_walker, 10, b)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_full_draw_is_every_index(self, small_walker, rng):
        indices = sample_indices(small_walker, len(small_walker), rng)
        assert indices.tolist() == list(range(len(small_walker)))

    def test_bounds_rejected(self, small_walker, rng):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_indices(small_walker, len(small_walker) + 1, rng)
        with pytest.raises(ValueError, match="non-negative"):
            sample_indices(small_walker, -1, rng)
