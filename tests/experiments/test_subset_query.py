"""ExperimentContext.subset_query: one fleet's precompute, on either engine.

A query is built one of two ways: *cold* (no full-pool store cached, so a
fleet-scoped build covers just the fleet) or *warm* (rows gathered, or a
CSR restricted, from the cached full-pool store).  Both must answer every
subset exactly as the full-pool store does for the same pool indices.
The directory's engine matrix runs every test once per engine.
"""

import numpy as np
import pytest

from repro.experiments.common import (
    CITY_INDICES,
    TAIPEI_INDEX,
    ExperimentConfig,
    ExperimentContext,
)
from repro.sim.intervals import ContactIntervals

CONFIG = ExperimentConfig(runs=1, step_s=300.0, duration_s=86_400.0)
FLEET_SIZE = 300
#: Demand sites for the active-fraction queries: the first five cities.
SITES = list(CITY_INDICES[:5])
PATHS = ("cold", "warm")


def _full_k_coverage(store, site: int, k: int, sats: np.ndarray) -> float:
    """k-coverage of ``sats`` at one site, read off the full-pool store."""
    if isinstance(store, ContactIntervals):
        return store.k_coverage_fraction(site, k, sats)
    bits = np.unpackbits(store.packed[site][sats], axis=1)[:, : store.n_times]
    counts = bits.sum(axis=0, dtype=np.int64)
    return float(np.count_nonzero(counts >= k) / store.n_times)


@pytest.fixture(scope="module")
def world(engine):
    """(fleet, full-pool store, {path: query}) on fresh contexts."""
    cold = ExperimentContext(engine=engine)
    warm = ExperimentContext(engine=engine)
    rng = np.random.default_rng(17)
    fleet = np.sort(rng.choice(len(cold.pool()), size=FLEET_SIZE, replace=False))
    queries = {"cold": cold.subset_query(CONFIG, fleet)}
    # The cold query came from a fleet-scoped build, not the full store.
    assert cold.cached_visibility() == {} and cold.cached_intervals() == {}
    store = warm.store(CONFIG)
    queries["warm"] = warm.subset_query(CONFIG, fleet)
    yield fleet, store, queries
    cold.clear()
    warm.clear()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("size", [0, 1, FLEET_SIZE - 1])
def test_answers_match_the_full_store(world, path, size):
    fleet, store, queries = world
    query = queries[path]
    subset = np.random.default_rng(size).permutation(fleet)[:size]
    assert np.array_equal(
        query.coverage_fractions(subset), store.coverage_fractions(subset)
    )
    assert np.array_equal(
        query.satellite_active_fractions(subset, SITES),
        store.satellite_active_fractions(subset, SITES),
    )
    for site in (TAIPEI_INDEX, SITES[0]):
        for k in (1, 2):
            assert query.k_coverage_fraction(site, k, subset) == (
                _full_k_coverage(store, site, k, subset)
            )


@pytest.mark.parametrize("path", PATHS)
def test_out_of_fleet_index_raises(world, path):
    fleet, _, queries = world
    outside = int(np.setdiff1d(np.arange(fleet[-1] + 2), fleet)[0])
    with pytest.raises(KeyError):
        queries[path].coverage_fractions(np.array([fleet[0], outside]))


def test_query_is_cached_per_fleet(engine):
    context = ExperimentContext(engine=engine)
    config = ExperimentConfig(runs=1, step_s=900.0, duration_s=10_800.0)
    first = context.subset_query(config, [3, 1, 2])
    assert context.subset_query(config, [1, 2, 3]) is first
    assert context.subset_query(config, [1, 2]) is not first
    context.clear()


def test_store_rejects_out_of_range_indices(engine):
    """Both engines' full-pool stores raise IndexError for an index < 0 or
    >= n; numpy would read a negative one from the end of the pool."""
    context = ExperimentContext(engine=engine)
    store = context.store(ExperimentConfig(runs=1, step_s=900.0, duration_s=10_800.0))
    for bad in (-1, store.n_satellites):
        with pytest.raises(IndexError, match=f"satellite index {bad} is out of range"):
            store.coverage_fractions([bad])
        with pytest.raises(IndexError, match=f"satellite index {bad} is out of range"):
            store.satellite_active_fractions([3, bad], SITES)
    for bad in (-1, store.n_sites):
        with pytest.raises(IndexError, match=f"site index {bad} is out of range"):
            store.satellite_active_fractions([5], [bad])
    context.clear()
