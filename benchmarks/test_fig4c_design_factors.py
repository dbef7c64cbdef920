"""Fig. 4c — inclination vs altitude vs phase for an added satellite.

Paper anchors: a different-inclination (43 deg) addition gains the most
(~1 h 11 m); different-altitude and different-phase additions still gain
over 30 minutes each.
"""



from repro.analysis.reporting import Table
from repro.experiments.fig4c_design_factors import run_fig4c


def test_fig4c_design_factors(bench_config, report):
    result = run_fig4c(bench_config)

    table = Table(
        "Fig. 4c: coverage gain by design factor (base: 4 sats, 53 deg / 546 km)",
        ["factor", "gain (h)", "gain (min)"],
        precision=2,
    )
    for label, gain in result.ranking():
        table.add_row(label, gain, gain * 60.0)
    report(table)

    gains = result.gains_hours
    # Paper anchor: inclination wins, at roughly 1 h 11 m.
    assert result.ranking()[0][0] == "inclination"
    assert 0.8 < gains["inclination"] < 1.6
    # The other two factors still gain over 30 minutes.
    assert gains["altitude"] > 0.5
    assert gains["phase"] > 0.5
