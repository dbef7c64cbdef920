"""Ablation — LEO vs GEO bent-pipe latency (§2's "why not geostationary?").

The paper dismisses GEO because of "orders of magnitude degradation in
network latency (second-level)".  This ablation computes the bent-pipe
latency bounds for the paper's LEO altitudes and for GEO from pure
geometry.
"""

from repro.analysis.reporting import Table
from repro.links.latency import (
    GEO_ALTITUDE_KM,
    geo_vs_leo_round_trip_ms,
    latency_bounds_ms,
)

ALTITUDES_KM = (550.0, 570.0, 1200.0, GEO_ALTITUDE_KM)


def _run():
    rows = []
    for altitude in ALTITUDES_KM:
        best, worst = latency_bounds_ms(altitude, min_elevation_deg=25.0)
        rows.append((altitude, best, worst, 2 * worst))
    return rows


def test_ablation_latency(bench_config, report):
    rows = _run()

    table = Table(
        "Ablation: bent-pipe latency by altitude (25 deg mask)",
        ["altitude (km)", "best one-way (ms)", "worst one-way (ms)", "worst RTT (ms)"],
        precision=1,
    )
    for altitude, best, worst, rtt in rows:
        table.add_row(altitude, best, worst, rtt)
    report(table)

    leo_rtt, geo_rtt = geo_vs_leo_round_trip_ms(leo_altitude_km=550.0)
    # The paper's claims, measured: GEO is second-level...
    assert geo_rtt > 480.0
    # ...and more than an order of magnitude worse than LEO.
    assert geo_rtt > 10.0 * leo_rtt
    # Latency grows monotonically with altitude.
    worsts = [worst for _, _, worst, _ in rows]
    assert all(b > a for a, b in zip(worsts, worsts[1:]))
