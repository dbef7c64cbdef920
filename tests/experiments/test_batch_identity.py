"""Batched scenario kernels against a per-run reference loop.

Figs. 3, 5, 6 and ``sharing`` evaluate a sweep point's runs in one
``run_batch`` call.  The reference below replays each run alone, with the
per-run kernels those scenarios had before batching: the same
``run_rng`` draws, one store query per run.  The runner's samples must be
``==`` to it on both engines.  The module also pins the sweep-time size
validation, which must raise before any contact store is built.
"""

import pytest

from repro.experiments import common
from repro.experiments.common import (
    CITY_INDICES,
    ExperimentConfig,
    ExperimentContext,
    weighted_city_coverage,
)
from repro.experiments.fig3_idle_vs_cities import Fig3Scenario
from repro.experiments.fig5_withdrawal import Fig5Scenario
from repro.experiments.fig6_party_skew import Fig6Scenario
from repro.experiments.sharing_upside import NETWORK_POINT, SharingUpsideScenario
from repro.runner import MonteCarloRunner, run_rng

#: One simulated day at 30-minute steps: a store in well under a second.
SMALL = dict(runs=4, step_s=1800.0, duration_s=86400.0)


@pytest.fixture(scope="module", autouse=True)
def _clear_caches_after():
    yield
    common.clear_caches()


def _fig3_run(scenario, point, rng, store, pool_size):
    sat_indices = rng.choice(pool_size, size=scenario.sample_size, replace=False)
    active = store.satellite_active_fractions(
        sat_indices, list(CITY_INDICES[:point])
    )
    return float(100.0 * (1.0 - active).mean())


def _withdrawal_run(store, pool_size, size, withdrawn, rng):
    base = rng.choice(pool_size, size=size, replace=False)
    order = rng.permutation(base)
    return weighted_city_coverage(store, order) - weighted_city_coverage(
        store, order[withdrawn:]
    )


def _fig5_run(scenario, point, rng, store, pool_size):
    withdrawn = int(round(scenario.withdraw_fraction * point))
    return _withdrawal_run(store, pool_size, point, withdrawn, rng)


def _fig6_run(scenario, point, rng, store, pool_size):
    withdrawn = scenario._largest_party_count(point)
    return _withdrawal_run(
        store, pool_size, scenario.total_satellites, withdrawn, rng
    )


def _sharing_run(scenario, point, rng, store, pool_size):
    if point == NETWORK_POINT:
        network = rng.choice(pool_size, size=scenario.network_size, replace=False)
        own = network[: scenario.contributed]
        return (
            weighted_city_coverage(store, own),
            weighted_city_coverage(store, network),
        )
    indices = rng.choice(pool_size, size=point, replace=False)
    return weighted_city_coverage(store, indices)


#: Scenario under test -> its per-run reference kernel.
CASES = {
    "fig3": (Fig3Scenario(city_counts=(1, 4, 21), sample_size=150), _fig3_run),
    "fig5": (Fig5Scenario(sizes=(20, 201)), _fig5_run),
    "fig6": (Fig6Scenario(skews=(1, 10), total_satellites=300), _fig6_run),
    "sharing": (
        SharingUpsideScenario(
            contributed=25, network_size=300, calibration_sizes=(10, 400)
        ),
        _sharing_run,
    ),
}


def _reference_samples(scenario, kernel, config, context):
    store = context.store(config)
    pool_size = len(context.pool())
    return [
        [
            kernel(
                scenario, point, run_rng(config.seed, scenario.salt, p, i),
                store, pool_size,
            )
            for i in range(config.runs)
        ]
        for p, point in enumerate(scenario.sweep(config, context))
    ]


@pytest.mark.parametrize("seed", [2024, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_samples_equal_per_run_loop(name, seed):
    scenario, kernel = CASES[name]
    config = ExperimentConfig(seed=seed, **SMALL)
    context = common.default_context()
    _, samples = MonteCarloRunner(config, context=context).collect(scenario)
    assert samples == _reference_samples(scenario, kernel, config, context)
    # Sanity: the runs of a point genuinely differ.
    assert len(set(samples[-1])) > 1


@pytest.fixture(scope="module")
def bare_context(engine):
    """A context that never builds a store: each case must fail first."""
    return ExperimentContext(engine=engine)


#: Scenario sizes the sweep rejects, with the message they raise.
BAD_SIZES = {
    "fig3.sample_size=0": (Fig3Scenario(sample_size=0), "sample_size"),
    "fig3.sample_size=-1": (Fig3Scenario(sample_size=-1), "sample_size"),
    "fig5.size=-4": (Fig5Scenario(sizes=(200, -4)), "size -4"),
    "fig6.parties=0": (Fig6Scenario(parties=0), "parties"),
    "fig6.total=-1": (Fig6Scenario(total_satellites=-1), "total -1"),
    "sharing.calibration=-10": (
        SharingUpsideScenario(calibration_sizes=(10, -10)), "size -10"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_bad_size_raises_before_any_store(bare_context, case):
    scenario, match = BAD_SIZES[case]
    config = ExperimentConfig(**SMALL)
    with pytest.raises(ValueError, match=match):
        MonteCarloRunner(config, context=bare_context).run(scenario)
    assert bare_context.cached_visibility() == {}
    assert bare_context.cached_intervals() == {}

