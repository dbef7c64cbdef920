"""Topocentric geometry: look angles from a ground site to a satellite.

Two paths are provided:

* The **reference path** (:func:`look_angles`) transforms ECEF vectors into
  the local South-East-Zenith (SEZ) frame and returns azimuth / elevation /
  slant range.  It is exact and used in tests, link budgets, and anywhere a
  pointing answer matters.
* The **fast path** used by the coverage engine avoids the transform
  entirely: for a satellite at orbital radius ``r`` and a site on a sphere of
  radius ``R``, elevation >= mask is equivalent to the Earth-central angle
  between the two position vectors being <= a threshold
  (:func:`coverage_central_angle_rad`).  Tests assert that both paths agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.constants import EARTH_MEAN_RADIUS_M

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class LookAngles:
    """Azimuth/elevation/range from a site to a satellite."""

    azimuth_deg: float
    elevation_deg: float
    slant_range_m: float


def _sez_rotation(latitude_deg: float, longitude_deg: float) -> np.ndarray:
    """Rotation matrix taking ECEF offsets into the site's SEZ frame."""
    lat = math.radians(latitude_deg)
    lon = math.radians(longitude_deg)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    return np.array(
        [
            [sin_lat * cos_lon, sin_lat * sin_lon, -cos_lat],
            [-sin_lon, cos_lon, 0.0],
            [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
        ]
    )


def look_angles(
    site_ecef: np.ndarray,
    satellite_ecef: np.ndarray,
    site_latitude_deg: float,
    site_longitude_deg: float,
) -> LookAngles:
    """Compute az/el/range from a ground site to a satellite (both ECEF, meters).

    Azimuth is measured clockwise from true north; elevation from the local
    horizontal plane.
    """
    offset = np.asarray(satellite_ecef, dtype=np.float64) - np.asarray(
        site_ecef, dtype=np.float64
    )
    sez = _sez_rotation(site_latitude_deg, site_longitude_deg) @ offset
    south, east, zenith = sez
    slant_range = float(np.linalg.norm(sez))
    if slant_range == 0.0:
        raise ValueError("satellite and site positions coincide")
    elevation = math.degrees(math.asin(zenith / slant_range))
    azimuth = math.degrees(math.atan2(east, -south)) % 360.0
    return LookAngles(azimuth, elevation, slant_range)


def elevation_deg(
    site_ecef: np.ndarray,
    satellite_ecef: np.ndarray,
) -> ArrayLike:
    """Elevation angle(s) of satellite(s) above a site's local horizon.

    A vectorized elevation-only computation that works for arrays of
    satellite positions: shape (..., 3) against a single site (3,).  The
    local vertical is approximated by the geocentric site direction, which is
    exact on a spherical Earth and within ~0.2 deg on the ellipsoid —
    consistent with the spherical coverage geometry the fast path uses.
    """
    site = np.asarray(site_ecef, dtype=np.float64)
    sat = np.asarray(satellite_ecef, dtype=np.float64)
    offset = sat - site
    offset_norm = np.linalg.norm(offset, axis=-1)
    site_unit = site / np.linalg.norm(site)
    sin_el = np.einsum("...i,i->...", offset, site_unit) / offset_norm
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def slant_range_m(
    orbital_radius_m: float,
    elevation_deg_value: float,
    site_radius_m: float = EARTH_MEAN_RADIUS_M,
) -> float:
    """Slant range to a satellite at a given elevation (spherical Earth).

    From the law of cosines on the Earth-center / site / satellite triangle.
    """
    el = math.radians(elevation_deg_value)
    r_site = site_radius_m
    r_sat = orbital_radius_m
    # Range satisfies: r_sat^2 = r_site^2 + rho^2 + 2 r_site rho sin(el).
    sin_el = math.sin(el)
    return -r_site * sin_el + math.sqrt(
        (r_site * sin_el) ** 2 + r_sat**2 - r_site**2
    )


def coverage_central_angle_rad(
    orbital_radius_m: float,
    min_elevation_deg: float,
    site_radius_m: float = EARTH_MEAN_RADIUS_M,
) -> float:
    """Earth-central half-angle of a satellite's coverage footprint.

    A site sees the satellite above ``min_elevation_deg`` iff the central
    angle between the site and the subsatellite point is below this value
    (spherical Earth).  Standard result (Wertz, *SMAD*):

        psi = acos( (R / r) * cos(el) ) - el
    """
    if orbital_radius_m <= site_radius_m:
        raise ValueError("orbital radius must exceed the site radius")
    el = math.radians(min_elevation_deg)
    return math.acos(site_radius_m / orbital_radius_m * math.cos(el)) - el
