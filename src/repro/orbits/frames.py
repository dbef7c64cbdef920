"""Time and coordinate frames.

The simulator works in three frames:

* **ECI** (Earth-centered inertial): where orbital propagation happens.
* **ECEF** (Earth-centered Earth-fixed): rotates with Earth; ground sites are
  fixed here.  ECI and ECEF are related by a rotation about the z-axis by the
  Greenwich Mean Sidereal Time (GMST) angle.
* **Geodetic** (latitude / longitude / altitude on the WGS-84 ellipsoid).

Simulation time is measured in seconds from a simulation epoch; the epoch's
absolute Earth orientation is captured by ``gmst_at_epoch_rad``.  For
statistical coverage experiments the epoch GMST only rotates the constellation
in longitude, so the default of 0 is fine.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from repro.constants import (
    EARTH_ECC_SQ,
    EARTH_RADIUS_M,
    EARTH_ROTATION_RATE,
)

ArrayLike = Union[float, np.ndarray]

TWO_PI = 2.0 * math.pi


def gmst_rad(sim_time_s: ArrayLike, gmst_at_epoch_rad: float = 0.0) -> ArrayLike:
    """GMST angle at a simulation time (seconds from the simulation epoch)."""
    return np.mod(gmst_at_epoch_rad + EARTH_ROTATION_RATE * np.asarray(sim_time_s), TWO_PI)


def eci_to_ecef(position_eci: np.ndarray, gmst: ArrayLike) -> np.ndarray:
    """Rotate ECI positions into the Earth-fixed frame.

    Args:
        position_eci: Array of shape (..., 3).
        gmst: GMST angle(s) in radians, broadcastable against the leading
            dimensions of ``position_eci``.

    Returns:
        Array of the same shape in ECEF coordinates.
    """
    position_eci = np.asarray(position_eci, dtype=np.float64)
    theta = np.asarray(gmst, dtype=np.float64)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    x = position_eci[..., 0]
    y = position_eci[..., 1]
    out = np.empty_like(position_eci)
    out[..., 0] = cos_t * x + sin_t * y
    out[..., 1] = -sin_t * x + cos_t * y
    out[..., 2] = position_eci[..., 2]
    return out


def ecef_to_eci(position_ecef: np.ndarray, gmst: ArrayLike) -> np.ndarray:
    """Rotate ECEF positions into the inertial frame (inverse of eci_to_ecef)."""
    return eci_to_ecef(position_ecef, -np.asarray(gmst))


def geodetic_to_ecef(
    latitude_deg: ArrayLike,
    longitude_deg: ArrayLike,
    altitude_m: ArrayLike = 0.0,
) -> np.ndarray:
    """Convert WGS-84 geodetic coordinates to ECEF (meters).

    Accepts scalars or arrays; returns an array of shape (..., 3).
    """
    lat = np.radians(np.asarray(latitude_deg, dtype=np.float64))
    lon = np.radians(np.asarray(longitude_deg, dtype=np.float64))
    alt = np.asarray(altitude_m, dtype=np.float64)

    sin_lat = np.sin(lat)
    prime_vertical = EARTH_RADIUS_M / np.sqrt(1.0 - EARTH_ECC_SQ * sin_lat**2)
    x = (prime_vertical + alt) * np.cos(lat) * np.cos(lon)
    y = (prime_vertical + alt) * np.cos(lat) * np.sin(lon)
    z = (prime_vertical * (1.0 - EARTH_ECC_SQ) + alt) * sin_lat
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def ecef_to_geodetic(position_ecef: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert ECEF positions to geodetic (lat_deg, lon_deg, alt_m).

    Uses Bowring's iterative method; three iterations reach sub-millimeter
    accuracy for LEO altitudes.
    """
    pos = np.asarray(position_ecef, dtype=np.float64)
    x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
    lon = np.arctan2(y, x)
    hypot_xy = np.hypot(x, y)

    lat = np.arctan2(z, hypot_xy * (1.0 - EARTH_ECC_SQ))
    for _ in range(3):
        sin_lat = np.sin(lat)
        prime_vertical = EARTH_RADIUS_M / np.sqrt(1.0 - EARTH_ECC_SQ * sin_lat**2)
        alt = hypot_xy / np.cos(lat) - prime_vertical
        lat = np.arctan2(z, hypot_xy * (1.0 - EARTH_ECC_SQ * prime_vertical / (prime_vertical + alt)))

    sin_lat = np.sin(lat)
    prime_vertical = EARTH_RADIUS_M / np.sqrt(1.0 - EARTH_ECC_SQ * sin_lat**2)
    alt = hypot_xy / np.cos(lat) - prime_vertical
    return np.degrees(lat), np.degrees(lon), alt


def subsatellite_point(
    position_eci: np.ndarray, gmst: ArrayLike
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the (lat_deg, lon_deg) ground point directly beneath a satellite.

    Uses the geocentric (spherical) latitude, which is what coverage footprint
    geometry needs; the difference from geodetic latitude (< 0.2 deg) is
    irrelevant at footprint scales of hundreds of km.
    """
    ecef = eci_to_ecef(position_eci, gmst)
    x, y, z = ecef[..., 0], ecef[..., 1], ecef[..., 2]
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    lon = np.degrees(np.arctan2(y, x))
    return lat, lon
