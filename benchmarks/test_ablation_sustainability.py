"""Ablation — the sustainability argument (§1/§6), quantified.

The paper's third strike against independent constellations: "increased
orbital congestion, with higher risks of collisions."  This ablation
compares the orbital environment of 11 independent 1000-satellite
constellations (each giving its country full coverage) against one shared
1000-satellite MP-LEO delivering the same coverage to all 11 — counting
objects, nearest-neighbor distances, and shell densities.  The economics
side prices both alternatives per party.
"""

from repro.analysis.reporting import Table
from repro.constellation.congestion import (
    conjunction_analysis,
    independent_vs_shared_occupancy,
    shell_occupancy,
)
from repro.constellation.sampling import sample_indices
from repro.core.economics import CostModel, compare_deployments
from repro.experiments.common import default_context, starlink_pool
from repro.sim.clock import TimeGrid

PARTIES = 11
PER_PARTY = 1000


def _run(config):
    rng = config.rng(salt=108)
    # The O(N^2) conjunction screen dominates; ~1.5 h at 10-minute sampling
    # is plenty to rank the two environments.
    grid = TimeGrid.hours(1.5, step_s=600.0)
    pool = starlink_pool()
    # Subset the context-cached pool propagator instead of re-deriving
    # batch state from elements per constellation.
    pool_propagator = default_context().pool_propagator()

    shared_idx = sample_indices(pool, PER_PARTY, rng)
    shared = pool.take(shared_idx, name="shared")
    # 11 independent constellations jammed into the same altitude regime:
    # model as 11 independently sampled 400-satellite sub-constellations
    # (capped to keep the O(N^2) conjunction screen tractable; densities
    # scale linearly so the ranking is unaffected).
    independent_idx = sample_indices(pool, min(PARTIES * 400, len(pool)), rng)
    independent_sample = pool.take(independent_idx, name="independent-sample")

    shared_report = conjunction_analysis(
        shared, grid, threshold_m=50_000.0,
        propagator=pool_propagator.subset(shared_idx),
    )
    independent_report = conjunction_analysis(
        independent_sample, grid, threshold_m=50_000.0,
        propagator=pool_propagator.subset(independent_idx),
    )
    counts = independent_vs_shared_occupancy(PER_PARTY, PARTIES, PER_PARTY)

    model = CostModel()
    economics = compare_deployments(
        0.995, PER_PARTY, PER_PARTY // PARTIES + 1, model=model
    )
    peak_density = {
        "shared": max(
            report.density_per_million_km3 for report in shell_occupancy(shared)
        ),
        "independent": max(
            report.density_per_million_km3
            for report in shell_occupancy(independent_sample)
        ),
    }
    return shared_report, independent_report, counts, economics, peak_density


def test_ablation_sustainability(bench_config, report):
    (shared_report, independent_report, counts,
     economics, peak_density) = _run(bench_config)

    table = Table(
        "Ablation: orbital environment — shared MP-LEO vs independent "
        "constellations",
        ["metric", "shared (1000)", "independent (11x1000, sampled)"],
        precision=1,
    )
    table.add_row(
        "objects in orbit", counts["shared_total"], counts["independent_total"]
    )
    table.add_row(
        "median nearest neighbor (km)",
        shared_report.median_nearest_neighbor_m / 1000.0,
        independent_report.median_nearest_neighbor_m / 1000.0,
    )
    table.add_row(
        "<50 km approaches / day",
        shared_report.conjunction_rate_per_day,
        independent_report.conjunction_rate_per_day,
    )
    table.add_row(
        "peak shell density (/1e6 km^3)",
        peak_density["shared"],
        peak_density["independent"],
    )
    report(table)

    economics_table = Table(
        "Ablation: per-party economics for 99.5%-coverage service (10 years)",
        ["alternative", "satellites", "cost (USD B)"],
        precision=2,
    )
    economics_table.add_row(
        "go it alone", economics.go_it_alone_satellites,
        economics.go_it_alone_cost / 1e9,
    )
    economics_table.add_row(
        "MP-LEO contribution", economics.mp_leo_contribution,
        economics.mp_leo_cost / 1e9,
    )
    report(economics_table)

    # The paper's claims, measured:
    assert counts["orbital_objects_saved"] == 10_000
    assert (
        independent_report.median_nearest_neighbor_m
        < shared_report.median_nearest_neighbor_m
    )
    assert (
        independent_report.conjunction_rate_per_day
        >= shared_report.conjunction_rate_per_day
    )
    assert economics.cost_ratio > 5.0
