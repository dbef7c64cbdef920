"""The store reductions and the geometry cache of ``experiments.common``.

``withdrawal_losses`` and ``weighted_city_rows`` are the batched forms of
``weighted_city_coverage`` that Figs. 5/6 and ``sharing`` reduce through;
``ExperimentContext.site_geometry`` is the per-(sites, grid) cache every
build reads.  Each runs on both engines (see this directory's conftest).
"""

import numpy as np
import pytest

from repro.experiments.common import (
    ALL_SITES,
    CITY_INDICES,
    TAIPEI_INDEX,
    ExperimentConfig,
    ExperimentContext,
    city_weights,
    weighted_city_coverage,
    weighted_city_rows,
    withdrawal_losses,
)
from repro.ground.cities import terminals_for_cities
from repro.obs import metrics
from repro.sim.clock import TimeGrid

#: One simulated day at 30-minute steps: a store in well under a second.
SMALL = ExperimentConfig(runs=1, step_s=1800.0, duration_s=86400.0)


@pytest.fixture(scope="module")
def context(engine):
    context = ExperimentContext(engine=engine)
    yield context
    context.clear()


@pytest.fixture(scope="module")
def store(context):
    return context.store(SMALL)


@pytest.fixture(scope="module")
def orders(store):
    rng = np.random.default_rng(11)
    return np.stack(
        [rng.choice(store.n_satellites, size=12, replace=False) for _ in range(5)]
    )


class TestWeightedCityRows:
    def test_each_row_matches_the_single_reduction(self, store, orders):
        rows = weighted_city_rows(store.coverage_fractions(orders))
        assert rows == [weighted_city_coverage(store, order) for order in orders]

    def test_all_cities_covered_is_one(self):
        fractions = np.ones((2, len(ALL_SITES)))
        assert weighted_city_rows(fractions) == pytest.approx([1.0, 1.0])

    def test_taipei_is_not_a_city_row(self):
        fractions = np.zeros((1, len(ALL_SITES)))
        fractions[0, TAIPEI_INDEX] = 1.0
        assert weighted_city_rows(fractions) == [0.0]

    @pytest.mark.parametrize("city", [0, 5, len(CITY_INDICES) - 1])
    def test_one_city_weighs_its_population_share(self, city):
        fractions = np.zeros((1, len(ALL_SITES)))
        fractions[0, CITY_INDICES[city]] = 1.0
        assert weighted_city_rows(fractions) == [
            pytest.approx(city_weights()[city])
        ]

    def test_empty_batch(self):
        assert weighted_city_rows(np.zeros((0, len(ALL_SITES)))) == []

    def test_returns_plain_floats(self, store, orders):
        rows = weighted_city_rows(store.coverage_fractions(orders))
        assert all(type(row) is float for row in rows)


class TestWithdrawalLosses:
    @pytest.mark.parametrize("withdrawn", [0, 1, 4, 11])
    def test_matches_two_single_reductions(self, store, orders, withdrawn):
        losses = withdrawal_losses(store, orders, withdrawn)
        expected = [
            weighted_city_coverage(store, order)
            - weighted_city_coverage(store, order[withdrawn:])
            for order in orders
        ]
        assert losses == expected

    def test_nothing_withdrawn_loses_nothing(self, store, orders):
        assert withdrawal_losses(store, orders, 0) == [0.0] * len(orders)

    def test_everyone_withdrawn_loses_all_coverage(self, store, orders):
        losses = withdrawal_losses(store, orders, orders.shape[1])
        expected = [weighted_city_coverage(store, order) for order in orders]
        assert losses == pytest.approx(expected)

    def test_losses_are_non_negative(self, store, orders):
        assert min(withdrawal_losses(store, orders, 6)) >= 0.0

    def test_one_loss_per_order(self, store, orders):
        assert len(withdrawal_losses(store, orders[:2], 3)) == 2


class TestSiteGeometry:
    @pytest.fixture
    def sites(self):
        return terminals_for_cities(ALL_SITES[1:4], 25.0)

    def test_cached_per_sites_and_grid(self, sites):
        context = ExperimentContext()
        grid = TimeGrid.hours(2.0, step_s=600.0)
        first = context.site_geometry(sites, grid)
        assert context.site_geometry(list(sites), TimeGrid.hours(2.0, step_s=600.0)) is first

    def test_counts_hits_and_misses(self, sites):
        context = ExperimentContext()
        grid = TimeGrid.hours(2.0, step_s=600.0)
        hits = metrics.counter("experiments.geometry_cache.hits")
        misses = metrics.counter("experiments.geometry_cache.misses")
        before = (hits.value, misses.value)
        context.site_geometry(sites, grid)
        context.site_geometry(sites, grid)
        assert (hits.value - before[0], misses.value - before[1]) == (1, 1)

    def test_other_grid_or_sites_build_anew(self, sites):
        context = ExperimentContext()
        grid = TimeGrid.hours(2.0, step_s=600.0)
        first = context.site_geometry(sites, grid)
        assert context.site_geometry(sites, TimeGrid.hours(2.0, step_s=300.0)) is not first
        assert context.site_geometry(sites[:2], grid) is not first

    def test_geometry_matches_its_key(self, sites):
        grid = TimeGrid.hours(2.0, step_s=600.0)
        geometry = ExperimentContext().site_geometry(sites, grid)
        assert list(geometry.sites) == list(sites)
        assert geometry.grid == grid

    def test_clear_drops_the_cache(self, sites):
        context = ExperimentContext()
        grid = TimeGrid.hours(2.0, step_s=600.0)
        first = context.site_geometry(sites, grid)
        context.clear()
        assert context.site_geometry(sites, grid) is not first

    def test_contexts_do_not_share_geometry(self, sites):
        grid = TimeGrid.hours(2.0, step_s=600.0)
        a = ExperimentContext().site_geometry(sites, grid)
        b = ExperimentContext().site_geometry(sites, grid)
        assert a is not b
