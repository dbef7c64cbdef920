"""Fig. 5 — coverage loss when half the constellation denies service.

Paper anchors: L=200 loses 24.17% of the week's coverage (1 day 16 h);
the loss shrinks with scale, down to 0.37% at L=2000.
"""



from repro.analysis.reporting import Table
from repro.experiments.fig5_withdrawal import DEFAULT_SIZES, run_fig5


def test_fig5_withdrawal(bench_config, shared_pool_visibility, report):
    result = run_fig5(bench_config, sizes=DEFAULT_SIZES)

    table = Table(
        "Fig. 5: weighted coverage loss when L/2 of L satellites withdraw",
        ["L", "loss %", "std", "lost time (h/week)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(
            point.satellites,
            point.mean_reduction_percent,
            point.std_reduction_percent,
            point.mean_lost_hours,
        )
    report(table)

    losses = {p.satellites: p.mean_reduction_percent for p in result.points}
    # Monotone: bigger constellations are more robust.
    values = [losses[size] for size in DEFAULT_SIZES]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    # Paper anchors: ~24% at L=200, <1% at L=2000.
    assert 15.0 < losses[200] < 35.0
    assert losses[2000] < 1.5
