"""Fig. 4b — phase placement between two satellites of a 12-satellite plane.

Paper anchor: the midpoint (15 degrees from each neighbour) maximizes the
coverage improvement — "strategically positioning a satellite at the
farthest point from existing satellites maximizes coverage benefits."
"""



from repro.analysis.reporting import Series
from repro.experiments.fig4b_phase_sweep import run_fig4b


def test_fig4b_phase_sweep(bench_config, report):
    result = run_fig4b(bench_config)

    series = Series(
        "Fig. 4b: coverage gain vs phase offset (12-sat plane, 53 deg / 546 km)",
        "phase offset (deg)",
        "gain (h)",
        precision=3,
    )
    for point in result.points:
        series.add_point(point.phase_offset_deg, point.gain_hours)
    report(series)

    # Paper anchor: the midpoint wins (1-degree sweep quantization).
    assert abs(result.best_offset_deg() - 15.0) <= 2.0
    # The curve rises toward the midpoint from both ends.
    gains = [point.gain_hours for point in result.points]
    midpoint_gain = max(gains)
    assert gains[0] < midpoint_gain
    assert gains[-1] < midpoint_gain
    # Rough symmetry around the midpoint.
    for left, right in zip(gains, reversed(gains)):
        assert abs(left - right) < 0.2
