"""Ablation — satellite failures and replenishment (§3.4's open question).

Simulates five years of attrition on a 500-satellite MP-LEO constellation
(5-year mean lifetime, 2% infant mortality) and reports the weighted-city
coverage trajectory with and without a steady replenishment program.
"""

from repro.analysis.reporting import Table
from repro.core.failures import (
    FailureModel,
    replenishment_rate_for_steady_state,
    simulate_attrition,
)
from repro.experiments.common import (
    default_context,
    starlink_pool,
    weighted_city_coverage,
)

FLEET = 500
HORIZON_YEARS = 5.0


def _run(config):
    rng = config.rng(salt=104)
    pool_size = len(starlink_pool())
    fleet_indices = rng.choice(pool_size, size=FLEET, replace=False)
    constellation = starlink_pool().take(fleet_indices)

    # One fleet-scoped precompute (engine-appropriate); every attrition
    # composition below is then a cheap masked subset query.  On a cold
    # cache this skips building geometry for the ~3900 pool satellites
    # the fleet never touches.
    query = default_context().subset_query(config, fleet_indices)

    def coverage_of(indices):
        return weighted_city_coverage(query, indices)

    model = FailureModel(mean_lifetime_years=5.0, infant_mortality_prob=0.02)
    steady_rate = int(round(replenishment_rate_for_steady_state(FLEET, model)))

    trajectories = {}
    for label, rate in (("no replenishment", 0), (f"{steady_rate}/yr", steady_rate)):
        points = simulate_attrition(
            constellation,
            model,
            config.rng(salt=105),  # Same failure draw for both arms.
            horizon_years=HORIZON_YEARS,
            epochs=6,
            replenish_per_year=rate,
        )
        rows = []
        for point in points:
            alive_pool_indices = fleet_indices[point.alive_indices]
            coverage = coverage_of(alive_pool_indices)
            rows.append((point.years, point.alive, coverage))
        trajectories[label] = rows
    return trajectories


def test_ablation_failures(bench_config, report):
    trajectories = _run(bench_config)

    for label, rows in trajectories.items():
        table = Table(
            f"Ablation: 5-year attrition of a {FLEET}-satellite MP-LEO "
            f"({label})",
            ["years", "alive", "weighted coverage"],
            precision=3,
        )
        for years, alive, coverage in rows:
            table.add_row(years, alive, coverage)
        report(table)

    unreplenished = trajectories["no replenishment"]
    replenished = next(v for k, v in trajectories.items() if k != "no replenishment")
    # Without replenishment the fleet decays toward exp(-1) of its size.
    assert unreplenished[-1][1] < unreplenished[0][1]
    # Replenishment holds both fleet size and coverage higher at the horizon.
    assert replenished[-1][1] > unreplenished[-1][1]
    assert replenished[-1][2] >= unreplenished[-1][2]
