"""Fig. 6 — coverage loss when the largest of 11 parties exits, vs skew.

Paper anchors: equal stakes minimize the loss; at 10:1 skew the loss is
~5.5% of the week (~10 h of no coverage) but the network stays
service-able.
"""



from repro.analysis.reporting import Table
from repro.experiments.fig6_party_skew import DEFAULT_SKEWS, run_fig6


def test_fig6_party_skew(bench_config, shared_pool_visibility, report):
    result = run_fig6(bench_config, skews=DEFAULT_SKEWS)

    table = Table(
        "Fig. 6: weighted coverage loss when the largest of 11 parties exits "
        "(1000 satellites)",
        ["skew (r:1:...:1)", "largest party sats", "loss %", "std", "lost (h/week)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(
            point.skew,
            point.largest_party_satellites,
            point.mean_reduction_percent,
            point.std_reduction_percent,
            point.mean_lost_hours,
        )
    report(table)

    losses = {p.skew: p.mean_reduction_percent for p in result.points}
    # Equal contributions minimize the damage.
    assert losses[1] == min(losses.values())
    # Loss grows with skew (allow sampling noise between adjacent points).
    assert losses[10] > losses[5] > losses[1]
    # Paper anchors: the paper's 91-satellite exit costs little; the
    # 500-satellite exit costs ~5-10% but the network survives.
    assert losses[1] < 2.0
    assert 3.0 < losses[10] < 12.0
