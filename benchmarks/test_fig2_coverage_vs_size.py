"""Fig. 2 — percentage of time without coverage vs constellation size.

Paper anchors: 100 satellites -> >50% time uncovered with gaps over an
hour; >=1000 satellites -> >=99.5% coverage.
"""



from repro.analysis.reporting import Table
from repro.experiments.fig2_coverage_vs_size import DEFAULT_SIZES, run_fig2


def test_fig2_coverage_vs_size(bench_config, shared_pool_visibility, report):
    result = run_fig2(bench_config, sizes=DEFAULT_SIZES)

    table = Table(
        "Fig. 2: % time without coverage at Taipei (1 week)",
        ["satellites", "uncovered %", "std", "mean max gap (h)", "worst gap (h)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(
            point.satellites,
            point.mean_uncovered_percent,
            point.std_uncovered_percent,
            point.mean_max_gap_s / 3600.0,
            point.max_max_gap_s / 3600.0,
        )
    report(table)

    uncovered = {p.satellites: p.mean_uncovered_percent for p in result.points}
    # Monotone decreasing in constellation size.
    series = [uncovered[size] for size in DEFAULT_SIZES]
    assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    # Paper anchors.
    assert uncovered[100] > 50.0
    assert uncovered[1000] < 1.5
    # "Continuous gaps of up to over an hour" at 100 satellites.
    point_100 = next(p for p in result.points if p.satellites == 100)
    assert point_100.max_max_gap_s > 3600.0
