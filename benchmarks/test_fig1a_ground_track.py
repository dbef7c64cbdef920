"""Fig. 1a — orbital motion of a LEO satellite across three hours.

The paper's motivating illustration: "the satellite covers different paths
on Earth during each orbit."  This benchmark regenerates the track and
verifies its quantitative content — the per-orbit westward shift of the
ground track and the latitude band the 53-degree inclination confines it
to — rather than matching pixels.
"""

from repro.analysis.reporting import Table
from repro.orbits.elements import OrbitalElements
from repro.orbits.groundtrack import compute_ground_track, nodal_shift_deg_per_orbit


def _run():
    elements = OrbitalElements.from_degrees(altitude_km=546.0, inclination_deg=53.0)
    track = compute_ground_track(elements, 3 * 3600.0, step_s=10.0)
    nodes = track.ascending_node_longitudes()
    return elements, track, nodes


def test_fig1a_ground_track(report):
    elements, track, nodes = _run()

    table = Table(
        "Fig. 1a: 3-hour ground track of one 53 deg / 546 km satellite",
        ["metric", "value"],
        precision=2,
    )
    table.add_row("orbital period (min)", elements.period_s / 60.0)
    table.add_row("orbits in 3 h", 3 * 3600.0 / elements.period_s)
    table.add_row("max |latitude| (deg)", track.max_latitude_deg)
    table.add_row("ascending nodes seen", len(nodes))
    if len(nodes) >= 2:
        table.add_row(
            "westward shift per orbit (deg)", (nodes[0] - nodes[1]) % 360.0
        )
    table.add_row(
        "predicted shift (deg)", nodal_shift_deg_per_orbit(elements)
    )
    report(table)

    # The figure's content: different path each orbit (nonzero westward
    # shift), bounded by the inclination.
    assert track.max_latitude_deg <= 53.5
    assert len(nodes) >= 1
    predicted = nodal_shift_deg_per_orbit(elements)
    assert 20.0 < predicted < 30.0
    if len(nodes) >= 2:
        measured = (nodes[0] - nodes[1]) % 360.0
        assert abs(measured - predicted) < 1.0
