"""Fig. 4a — coverage gained by adding one satellite to a base constellation.

Paper anchors: adding to a 1-satellite base gains >1 h of weighted coverage
on average; gains shrink as the base grows (100, 500).
"""



from repro.analysis.reporting import Table
from repro.experiments.fig4a_single_addition import run_fig4a


def test_fig4a_single_addition(bench_config, shared_pool_visibility, report):
    result = run_fig4a(bench_config, base_sizes=(1, 100, 500))

    table = Table(
        "Fig. 4a: weighted coverage gain from one added satellite (1 week)",
        ["base size", "mean gain (h)", "max gain (h)", "min gain (h)"],
        precision=3,
    )
    for point in result.points:
        table.add_row(
            point.base_satellites,
            point.mean_gain_hours,
            point.max_gain_hours,
            point.min_gain_hours,
        )
    report(table)

    gains = {p.base_satellites: p.mean_gain_hours for p in result.points}
    # Paper anchor: ~1 h mean gain on a single-satellite base.
    assert gains[1] > 0.6
    # Diminishing returns with base size.
    assert gains[1] > gains[100] > gains[500]
    # Gains never negative (coverage is monotone in satellites).
    assert all(p.min_gain_hours >= 0.0 for p in result.points)
