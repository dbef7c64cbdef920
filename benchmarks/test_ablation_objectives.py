"""Ablation — regional vs profit objectives (§3.2's observation).

Scores the same candidate pool under a country's objective (cover the home
city) and a company's objective (population-weighted global coverage) and
measures how aligned the two rankings are.  The paper observes the choices
are "often co-related, but do not exactly lead to the same outcomes".
"""

from repro.analysis.reporting import Table
from repro.core.objectives import objective_correlation
from repro.core.placement import gap_filling_candidates
from repro.sim.clock import TimeGrid

HOME_CITIES = ("Tokyo", "Taipei", "Sao Paulo", "London")
CANDIDATES = 32


def _run(config):
    grid = TimeGrid.one_week(step_s=max(config.step_s, 300.0))
    results = {}
    for home in HOME_CITIES:
        candidates = gap_filling_candidates(config.rng(salt=106), count=CANDIDATES)
        comparison = objective_correlation(None, candidates, grid, home)
        results[home] = comparison
    return results


def test_ablation_objectives(bench_config, report):
    results = _run(bench_config)

    table = Table(
        f"Ablation: regional vs global placement objectives "
        f"({CANDIDATES} candidates)",
        ["home city", "rank correlation", "same best satellite"],
        precision=3,
    )
    for home, comparison in results.items():
        table.add_row(home, comparison.rank_correlation, str(comparison.same_winner))
    report(table)

    correlations = [c.rank_correlation for c in results.values()]
    # "Often co-related": strongly positive for most homes.  (High-latitude
    # homes like London can anti-correlate — polar candidates serve them but
    # not the tropics-weighted global objective — which is exactly the
    # paper's "do not exactly lead to the same outcomes" caveat.)
    assert sum(value > 0.5 for value in correlations) >= 3
    # ...but not a perfect match across the board.
    assert not all(value > 0.999 for value in correlations)
