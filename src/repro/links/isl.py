"""Inter-satellite links (the paper's §4 extension).

The baseline MP-LEO design deliberately omits ISLs ("our current design
omits ISLs to simplify satellite architecture and reduce costs. However,
future work can consider ISLs to enable data routing between satellites
without needing to relay signals through ground stations").  This module
implements that future work so the trade-off can be measured:

* :func:`isl_visibility` — which satellite pairs can maintain a link at a
  time: line-of-sight must clear the atmosphere-padded Earth and the range
  must be within the laser/RF terminal's reach.
* :func:`relayable_with_isl` — the relay analysis: "can this user's
  traffic reach *any* ground station of its party via ISL hops?".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import EARTH_MEAN_RADIUS_M

#: Grazing altitude for the line-of-sight test, meters: ISL beams must clear
#: the atmosphere (attenuation below ~80 km makes links unusable).
DEFAULT_GRAZING_ALTITUDE_M = 80_000.0

#: Default maximum ISL range, meters (typical optical ISL terminals close
#: links out to a few thousand km).
DEFAULT_MAX_RANGE_M = 5_000_000.0


def isl_visibility(
    positions_eci: np.ndarray,
    max_range_m: float = DEFAULT_MAX_RANGE_M,
    grazing_altitude_m: float = DEFAULT_GRAZING_ALTITUDE_M,
) -> np.ndarray:
    """Pairwise ISL feasibility at one instant.

    Args:
        positions_eci: (N, 3) satellite positions, meters.
        max_range_m: Maximum link range.
        grazing_altitude_m: Line-of-sight must pass above this altitude.

    Returns:
        (N, N) boolean symmetric matrix with a False diagonal.

    The line-of-sight test computes the minimum distance from Earth's center
    to the segment between two satellites; the link is blocked when that
    distance dips below ``EARTH_MEAN_RADIUS_M + grazing_altitude_m``.
    """
    positions = np.asarray(positions_eci, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {positions.shape}")
    count = positions.shape[0]
    blocked_radius = EARTH_MEAN_RADIUS_M + grazing_altitude_m

    delta = positions[None, :, :] - positions[:, None, :]  # (N, N, 3)
    distances = np.linalg.norm(delta, axis=-1)  # (N, N)

    # Closest approach of segment a->b to the origin: project -a onto (b-a).
    a_dot_d = np.einsum("ik,ijk->ij", positions, delta)  # (N, N)
    d_sq = np.einsum("ijk,ijk->ij", delta, delta)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(d_sq > 0.0, -a_dot_d / d_sq, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = positions[:, None, :] + t[..., None] * delta  # (N, N, 3)
    min_center_distance = np.linalg.norm(closest, axis=-1)

    feasible = (
        (distances <= max_range_m)
        & (min_center_distance >= blocked_radius)
    )
    np.fill_diagonal(feasible, False)
    return feasible


def relayable_with_isl(
    terminal_visible: np.ndarray,
    station_visible: np.ndarray,
    isl_feasible: np.ndarray,
    max_hops: Optional[int] = None,
) -> np.ndarray:
    """Which terminal-visible satellites can reach a ground station via ISLs.

    The ISL variant of the bent-pipe eligibility rule: a satellite can serve
    a terminal when it either sees a ground station directly or can forward
    over ISL hops to a satellite that does.

    Args:
        terminal_visible: (N,) bool — terminal sees satellite n.
        station_visible: (N,) bool — satellite n sees a usable station.
        isl_feasible: (N, N) bool ISL matrix at the same instant.
        max_hops: Optional cap on forwarding hops (None = unlimited).

    Returns:
        (N,) bool — satellite n is usable for the terminal at this instant.
    """
    terminal_visible = np.asarray(terminal_visible, dtype=bool)
    station = np.asarray(station_visible, dtype=bool)
    feasible = np.asarray(isl_feasible, dtype=bool)
    count = terminal_visible.size
    if station.shape != (count,) or feasible.shape != (count, count):
        raise ValueError("shape mismatch between visibility inputs")

    # BFS from all station-visible satellites through the ISL graph.
    reach = station.copy()
    frontier = station.copy()
    hops = 0
    while frontier.any() and (max_hops is None or hops < max_hops):
        next_frontier = (feasible[frontier].any(axis=0)) & ~reach
        if not next_frontier.any():
            break
        reach |= next_frontier
        frontier = next_frontier
        hops += 1
    return terminal_visible & reach
