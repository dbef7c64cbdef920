"""Tests for ExperimentContext cache keying/lifetime and the city-weight cache."""

import gc
import weakref

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    visibility_cache_key,
)


def _seed_visibility(monkeypatch, context, config, tensor, pool_seed=0):
    """Make ``tensor`` the context's cached visibility for ``config``.

    The packed build is stubbed out (it hands back ``tensor`` once, holding
    no reference afterwards), so the entry lands through the real
    :meth:`ExperimentContext.visibility` cache path at no build cost.
    """
    pending = [tensor]
    monkeypatch.setattr(
        common, "packed_visibility", lambda *args, **kwargs: pending.pop()
    )
    assert context.visibility(config, pool_seed) is tensor


class TestVisibilityCacheKeying:
    def test_key_fields(self):
        config = ExperimentConfig(step_s=300.0, min_elevation_deg=25.0,
                                  duration_s=86400.0)
        assert visibility_cache_key(config, pool_seed=3) == (
            3, 300.0, 25.0, 86400.0,
        )

    def test_distinct_configs_never_alias(self):
        """Every config field the tensor depends on separates cache entries."""
        base = ExperimentConfig(step_s=300.0, duration_s=86400.0)
        variants = [
            (base, 1),  # pool seed
            (ExperimentConfig(step_s=600.0, duration_s=86400.0), 0),
            (ExperimentConfig(step_s=300.0, min_elevation_deg=40.0,
                              duration_s=86400.0), 0),
            (ExperimentConfig(step_s=300.0, duration_s=2 * 86400.0), 0),
        ]
        keys = {visibility_cache_key(base, 0)}
        for config, pool_seed in variants:
            keys.add(visibility_cache_key(config, pool_seed))
        assert len(keys) == 1 + len(variants)

    def test_statistical_knobs_do_not_split_the_cache(self):
        """runs/seed don't change the tensor — one entry serves all."""
        a = ExperimentConfig(runs=3, seed=1, step_s=300.0)
        b = ExperimentConfig(runs=50, seed=99, step_s=300.0)
        assert visibility_cache_key(a) == visibility_cache_key(b)

    def test_build_is_cached_under_the_key(self, monkeypatch):
        context = ExperimentContext()
        config = ExperimentConfig(step_s=900.0, duration_s=86400.0)
        sentinel = object()
        _seed_visibility(monkeypatch, context, config, sentinel, pool_seed=2)
        cached = context.cached_visibility()
        assert cached[visibility_cache_key(config, 2)] is sentinel
        # A different pool seed does not see the cached tensor.
        assert visibility_cache_key(config, 0) not in cached
        # A second lookup is a cache hit (the stub would fail a rebuild).
        assert context.visibility(config, 2) is sentinel


class TestContextLifetime:
    def test_contexts_are_isolated(self, monkeypatch):
        first, second = ExperimentContext(), ExperimentContext()
        config = ExperimentConfig(step_s=900.0)
        _seed_visibility(monkeypatch, first, config, object())
        assert second.cached_visibility() == {}

    def test_clear_releases_entries(self, monkeypatch):
        """clear() must actually free the tensors, not just forget the keys."""
        context = ExperimentContext()
        config = ExperimentConfig(step_s=900.0)

        class Tensor:  # Weakref-able stand-in for a PackedVisibility.
            pass

        tensor = Tensor()
        ref = weakref.ref(tensor)
        _seed_visibility(monkeypatch, context, config, tensor)
        del tensor
        assert ref() is not None  # The cache keeps it alive...
        context.clear()
        gc.collect()
        assert ref() is None  # ...and clear() lets it go.
        assert context.cached_visibility() == {}

    def test_clear_releases_pools(self):
        context = ExperimentContext()
        context.pool()
        assert context.cached_pool_seeds() == (0,)
        context.clear()
        assert context.cached_pool_seeds() == ()

    def test_module_clear_caches_clears_default_context(self, monkeypatch):
        config = ExperimentConfig(step_s=900.0)
        sentinel = object()
        _seed_visibility(monkeypatch, common.default_context(), config, sentinel)
        common.clear_caches()
        assert common.default_context().cached_visibility() == {}


class TestCityWeightCache:
    def test_same_array_returned(self):
        assert common.city_weights() is common.city_weights()

    def test_read_only(self):
        weights = common.city_weights()
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_normalized(self):
        weights = common.city_weights()
        assert weights.shape == (len(common.CITY_INDICES),)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0.0).all()

    def test_weighted_coverage_uses_city_rows(self):
        """The weighted reduction equals the manual dot over city sites."""

        class StubStore:
            def coverage_fractions(self, sat_indices):
                return np.linspace(0.0, 1.0, len(common.ALL_SITES))

        stub = StubStore()
        fractions = stub.coverage_fractions(None)
        expected = float(
            common.city_weights() @ fractions[list(common.CITY_INDICES)]
        )
        got = common.weighted_city_coverage(stub, np.arange(3))
        assert got == pytest.approx(expected)
        # Taipei (site 0) carries zero coverage in the stub, so any leak of
        # the non-city row would lower the weighted value.
        assert got > 0.0


#: A cheap full-pool store: three hours at 15-minute steps.
ACTIVITY_CONFIG = ExperimentConfig(runs=1, step_s=900.0, duration_s=10_800.0)


class TestSatelliteActivity:
    """The fill-once activity table answers like the store it reads."""

    @pytest.fixture
    def context(self, engine):
        return ExperimentContext(engine=engine)

    @pytest.fixture
    def asked(self, context, monkeypatch):
        """Every satellite list the store is asked about, in call order."""
        store = context.store(ACTIVITY_CONFIG)
        calls = []
        query = type(store).satellite_active_fractions

        def counting(self, sat_indices=None, site_indices=None):
            calls.append(np.asarray(sat_indices).tolist())
            return query(self, sat_indices, site_indices)

        monkeypatch.setattr(type(store), "satellite_active_fractions", counting)
        return calls

    def test_matches_store_over_overlapping_subsets(self, context):
        store = context.store(ACTIVITY_CONFIG)
        rng = np.random.default_rng(3)
        n = store.n_satellites
        for sites in ([1], [1, 2, 3], list(range(1, 22)), [5, 0], []):
            for size in (1, 50, 500, 500, 2000):
                sats = rng.choice(n, size=size, replace=False)
                np.testing.assert_array_equal(
                    context.satellite_activity(ACTIVITY_CONFIG, sats, sites),
                    store.satellite_active_fractions(sats, sites),
                )

    def test_store_is_asked_only_for_missing_satellites(self, context, asked):
        context.satellite_activity(ACTIVITY_CONFIG, [7, 3, 7], [1, 2])
        context.satellite_activity(ACTIVITY_CONFIG, [3, 9, 7], [1, 2])
        context.satellite_activity(ACTIVITY_CONFIG, [9, 3], [1, 2])
        assert asked == [[3, 7], [9]]

    def test_bad_satellite_index_raises_after_fill(self, context):
        n = context.store(ACTIVITY_CONFIG).n_satellites
        context.satellite_activity(ACTIVITY_CONFIG, np.arange(n), [1])
        for bad in (-1, n, n + 1):
            with pytest.raises(IndexError, match=f"satellite index {bad}"):
                context.satellite_activity(ACTIVITY_CONFIG, [0, bad], [1])
        with pytest.raises(IndexError, match="site index -1"):
            context.satellite_activity(ACTIVITY_CONFIG, [0], [-1])

    def test_site_spellings_share_one_table(self, context, asked):
        sats = [4, 8, 15]
        answers = [
            context.satellite_activity(ACTIVITY_CONFIG, sats, sites)
            for sites in ([1, 2], (1, 2), np.array([1, 2]))
        ]
        assert asked == [sats]
        for answer in answers[1:]:
            np.testing.assert_array_equal(answer, answers[0])

    def test_returns_a_copy(self, context):
        first = context.satellite_activity(ACTIVITY_CONFIG, [4, 8], [1])
        expect = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(
            context.satellite_activity(ACTIVITY_CONFIG, [4, 8], [1]), expect
        )

    def test_clear_drops_every_table(self, context):
        context.satellite_activity(ACTIVITY_CONFIG, [4, 8], [1])
        context.satellite_activity(ACTIVITY_CONFIG, [4, 8], [1, 2])
        assert len(context._activity) == 2
        context.clear()
        assert context._activity == {}
