"""Fig. 3 — satellite idle time vs number of cities served.

Paper anchors: serving one major city leaves satellites idle ~99% of the
time; idle time falls monotonically as cities are added.
"""



from repro.analysis.reporting import Series
from repro.experiments.fig3_idle_vs_cities import run_fig3


def test_fig3_idle_vs_cities(bench_config, shared_pool_visibility, report):
    city_counts = tuple(range(1, 22))
    result = run_fig3(bench_config, city_counts=city_counts)

    series = Series(
        "Fig. 3: satellite idle time vs cities served (1 week)",
        "cities",
        "mean idle %",
        precision=2,
    )
    for point in result.points:
        series.add_point(point.cities, point.mean_idle_percent)
    report(series)

    idle = {p.cities: p.mean_idle_percent for p in result.points}
    # Paper anchor: one city -> ~99% idle.
    assert idle[1] > 98.0
    # Monotone decreasing in the number of cities.
    values = [idle[count] for count in city_counts]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    # Global sharing materially improves utilization.
    assert idle[21] < idle[1] - 5.0
