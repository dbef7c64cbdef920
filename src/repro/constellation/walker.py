"""Walker constellation pattern generators.

A Walker pattern ``i: T/P/F`` places ``T`` satellites in ``P`` equally spaced
orbital planes at inclination ``i``, with ``T/P`` satellites per plane and an
inter-plane phase offset controlled by the phasing factor ``F``
(0 <= F < P).  Two flavours are standard:

* **Walker delta**: ascending nodes spread over the full 360 degrees — the
  pattern used by Starlink's inclined shells.
* **Walker star**: ascending nodes spread over 180 degrees — the pattern used
  by polar constellations such as Iridium and OneWeb.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.constants import EARTH_RADIUS_M
from repro.orbits.elements import ElementColumns, OrbitalElements, wrap_angles


def walker_columns(
    total_satellites: int,
    planes: int,
    phasing_factor: int,
    inclination_deg: float,
    altitude_km: float,
    *,
    star: bool = False,
    raan_offset_deg: float = 0.0,
    phase_offset_deg: float = 0.0,
    eccentricity: float = 0.0,
) -> ElementColumns:
    """A Walker delta (or, with ``star``, Walker star) pattern as columns.

    Satellites are ordered plane by plane, slot by slot.  Every angle is
    formed with the scalar generator's operations in its order (degrees,
    reduced mod 360, then to wrapped radians), so :meth:`ElementColumns.
    to_elements` of the result is what :func:`walker_delta` /
    :func:`walker_star` return.
    """
    if total_satellites <= 0:
        raise ValueError(f"total_satellites must be positive, got {total_satellites}")
    if planes <= 0:
        raise ValueError(f"planes must be positive, got {planes}")
    if total_satellites % planes != 0:
        raise ValueError(
            f"total_satellites ({total_satellites}) must divide evenly into "
            f"planes ({planes})"
        )
    if not 0 <= phasing_factor < planes:
        raise ValueError(
            f"phasing_factor must be in [0, planes), got {phasing_factor}"
        )
    per_plane = total_satellites // planes
    node_spread_deg = 180.0 if star else 360.0
    plane = np.repeat(np.arange(planes, dtype=np.float64), per_plane)
    slot = np.tile(np.arange(per_plane, dtype=np.float64), planes)
    raan_deg = raan_offset_deg + node_spread_deg * plane / planes
    mean_anomaly_deg = (
        phase_offset_deg
        + 360.0 * slot / per_plane
        + 360.0 * phasing_factor * plane / total_satellites
    )
    # OrbitalElements.from_degrees, elementwise.
    return ElementColumns(
        semi_major_axis_m=np.full(total_satellites, EARTH_RADIUS_M + altitude_km * 1000.0),
        eccentricity=np.full(total_satellites, eccentricity),
        inclination_rad=np.full(total_satellites, math.radians(inclination_deg)),
        raan_rad=wrap_angles(np.radians(np.mod(raan_deg, 360.0))),
        arg_perigee_rad=np.zeros(total_satellites),
        mean_anomaly_rad=wrap_angles(np.radians(np.mod(mean_anomaly_deg, 360.0))),
        epoch_s=np.zeros(total_satellites),
    )


def walker_delta(
    total_satellites: int,
    planes: int,
    phasing_factor: int,
    inclination_deg: float,
    altitude_km: float,
    raan_offset_deg: float = 0.0,
    phase_offset_deg: float = 0.0,
    eccentricity: float = 0.0,
) -> List[OrbitalElements]:
    """Generate a Walker delta pattern (nodes spread over 360 degrees).

    Example — one Starlink-like shell:
        >>> shell = walker_delta(1584, 72, 1, inclination_deg=53.0, altitude_km=550.0)
        >>> len(shell)
        1584
    """
    return walker_columns(
        total_satellites,
        planes,
        phasing_factor,
        inclination_deg,
        altitude_km,
        raan_offset_deg=raan_offset_deg,
        phase_offset_deg=phase_offset_deg,
        eccentricity=eccentricity,
    ).to_elements()


def walker_star(
    total_satellites: int,
    planes: int,
    phasing_factor: int,
    inclination_deg: float,
    altitude_km: float,
    raan_offset_deg: float = 0.0,
    phase_offset_deg: float = 0.0,
    eccentricity: float = 0.0,
) -> List[OrbitalElements]:
    """Generate a Walker star pattern (nodes spread over 180 degrees)."""
    return walker_columns(
        total_satellites,
        planes,
        phasing_factor,
        inclination_deg,
        altitude_km,
        star=True,
        raan_offset_deg=raan_offset_deg,
        phase_offset_deg=phase_offset_deg,
        eccentricity=eccentricity,
    ).to_elements()


def single_plane(
    count: int,
    inclination_deg: float,
    altitude_km: float,
    raan_deg: float = 0.0,
    phase_offset_deg: float = 0.0,
) -> List[OrbitalElements]:
    """Place ``count`` satellites evenly around one orbital plane.

    This is the geometry of the paper's Fig. 4b experiment (12 satellites,
    30 degrees apart, 53 degree inclination at 546 km).
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return [
        OrbitalElements.from_degrees(
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            raan_deg=raan_deg,
            mean_anomaly_deg=(phase_offset_deg + 360.0 * slot / count) % 360.0,
        )
        for slot in range(count)
    ]
