"""§2 claim — "a participant contributing just 50 satellites can get
coverage worth over 1000 satellites by trading off their spare capacities".
"""



from repro.analysis.reporting import Table
from repro.experiments.sharing_upside import run_sharing_upside


def test_sharing_upside(bench_config, shared_pool_visibility, report):
    result = run_sharing_upside(bench_config, contributed=50, network_size=1000)

    table = Table(
        "Sec. 2 claim: coverage worth of a 50-satellite contribution in a "
        "1000-satellite MP-LEO",
        ["metric", "value"],
        precision=3,
    )
    upside = result.upside
    table.add_row("alone coverage (50 sats)", upside.alone_coverage_fraction)
    table.add_row("shared coverage (1000 sats)", upside.shared_coverage_fraction)
    table.add_row("equivalent go-it-alone sats", upside.equivalent_alone_satellites)
    table.add_row("satellite multiplier", upside.satellite_multiplier)
    report(table)

    calibration = Table(
        "Go-it-alone calibration curve", ["satellites", "weighted coverage"],
        precision=3,
    )
    for size, coverage in result.calibration:
        calibration.add_row(size, coverage)
    report(calibration)

    # The paper's claim: worth over 1000 satellites, i.e. >= 20x.
    assert upside.equivalent_alone_satellites >= 1000
    assert upside.satellite_multiplier >= 20.0
