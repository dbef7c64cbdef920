"""Physical and astrodynamic constants used across the library.

All values follow WGS-84 / standard astrodynamics references (Vallado,
*Fundamentals of Astrodynamics and Applications*).  Units are SI unless the
name says otherwise.
"""

from __future__ import annotations

import math

#: Earth gravitational parameter, m^3 / s^2 (WGS-84).
MU_EARTH = 3.986004418e14

#: Mean equatorial Earth radius, meters (WGS-84).
EARTH_RADIUS_M = 6_378_137.0

#: Mean Earth radius used for spherical-Earth coverage geometry, meters.
EARTH_MEAN_RADIUS_M = 6_371_000.0

#: WGS-84 flattening.
EARTH_FLATTENING = 1.0 / 298.257223563

#: WGS-84 first eccentricity squared.
EARTH_ECC_SQ = EARTH_FLATTENING * (2.0 - EARTH_FLATTENING)

#: Earth rotation rate, rad/s (sidereal).
EARTH_ROTATION_RATE = 7.292115e-5

#: J2 zonal harmonic coefficient of Earth's gravity field.
J2 = 1.08262668e-3

#: Seconds per sidereal day.
SIDEREAL_DAY_S = 86_164.0905

#: Seconds per solar day.
DAY_S = 86_400.0

#: Seconds per week.
WEEK_S = 7 * DAY_S

#: Speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0

#: Boltzmann constant, J/K.
BOLTZMANN = 1.380649e-23

#: Boltzmann constant expressed in dBW/(K*Hz).
BOLTZMANN_DBW = 10.0 * math.log10(BOLTZMANN)

#: Default minimum elevation mask for user terminals, degrees.  Starlink user
#: terminals operate with a 25 degree mask; the paper's CosmicBeats runs use
#: the same assumption.
DEFAULT_MIN_ELEVATION_DEG = 25.0

#: Default simulation time step, seconds.
DEFAULT_TIME_STEP_S = 60.0


def orbital_period_s(semi_major_axis_m: float) -> float:
    """Return the Keplerian orbital period for a semi-major axis in meters."""
    if semi_major_axis_m <= 0.0:
        raise ValueError(f"semi-major axis must be positive, got {semi_major_axis_m}")
    return 2.0 * math.pi * math.sqrt(semi_major_axis_m**3 / MU_EARTH)


def mean_motion_rad_s(semi_major_axis_m: float) -> float:
    """Return the Keplerian mean motion (rad/s) for a semi-major axis in meters."""
    if semi_major_axis_m <= 0.0:
        raise ValueError(f"semi-major axis must be positive, got {semi_major_axis_m}")
    return math.sqrt(MU_EARTH / semi_major_axis_m**3)
