"""Classical orbital elements and anomaly conversions.

The :class:`OrbitalElements` dataclass is the library's canonical description
of an orbit at an epoch.  Angles are stored in **radians** internally; the
constructor helpers accept degrees because constellation design parameters
(inclination 53°, phases 30° apart, …) are naturally quoted in degrees.
:class:`ElementColumns` holds the same seven fields for a whole fleet as
float64 arrays, the form the batch propagator and the synthetic pools use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, List, Sequence

import numpy as np

from repro.constants import EARTH_RADIUS_M, MU_EARTH, mean_motion_rad_s

TWO_PI = 2.0 * math.pi


def wrap_angle(angle_rad: float) -> float:
    """Wrap an angle to the range [0, 2*pi)."""
    wrapped = math.fmod(angle_rad, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    if wrapped >= TWO_PI:  # Tiny negatives round up to exactly 2*pi.
        wrapped = 0.0
    return wrapped


def wrap_angles(angles_rad: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of every element of a float64 array (a new array)."""
    wrapped = np.fmod(angles_rad, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


@dataclass(frozen=True)
class OrbitalElements:
    """Classical (Keplerian) orbital elements at a reference epoch.

    Attributes:
        semi_major_axis_m: Semi-major axis in meters (> Earth radius for the
            orbits this library cares about, but any positive value is
            accepted so tests can construct degenerate cases).
        eccentricity: Orbital eccentricity in [0, 1).
        inclination_rad: Inclination in radians, [0, pi].
        raan_rad: Right ascension of the ascending node, radians.
        arg_perigee_rad: Argument of perigee, radians.
        mean_anomaly_rad: Mean anomaly at epoch, radians.
        epoch_s: Epoch as seconds relative to the simulation epoch.
    """

    semi_major_axis_m: float
    eccentricity: float
    inclination_rad: float
    raan_rad: float
    arg_perigee_rad: float
    mean_anomaly_rad: float
    epoch_s: float = 0.0

    def __post_init__(self) -> None:
        if self.semi_major_axis_m <= 0.0:
            raise ValueError(
                f"semi-major axis must be positive, got {self.semi_major_axis_m}"
            )
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(
                f"eccentricity must be in [0, 1), got {self.eccentricity}"
            )
        if not 0.0 <= self.inclination_rad <= math.pi:
            raise ValueError(
                f"inclination must be in [0, pi], got {self.inclination_rad}"
            )

    @classmethod
    def from_degrees(
        cls,
        *,
        altitude_km: float,
        inclination_deg: float,
        raan_deg: float = 0.0,
        arg_perigee_deg: float = 0.0,
        mean_anomaly_deg: float = 0.0,
        eccentricity: float = 0.0,
        epoch_s: float = 0.0,
    ) -> "OrbitalElements":
        """Build elements from constellation-design style parameters.

        ``altitude_km`` is the altitude above the mean equatorial radius; the
        semi-major axis is ``EARTH_RADIUS_M + altitude_km * 1000``.
        """
        return cls(
            semi_major_axis_m=EARTH_RADIUS_M + altitude_km * 1000.0,
            eccentricity=eccentricity,
            inclination_rad=math.radians(inclination_deg),
            raan_rad=wrap_angle(math.radians(raan_deg)),
            arg_perigee_rad=wrap_angle(math.radians(arg_perigee_deg)),
            mean_anomaly_rad=wrap_angle(math.radians(mean_anomaly_deg)),
            epoch_s=epoch_s,
        )

    @property
    def altitude_km(self) -> float:
        """Altitude above the mean equatorial radius, km (circular orbits)."""
        return (self.semi_major_axis_m - EARTH_RADIUS_M) / 1000.0

    @property
    def inclination_deg(self) -> float:
        return math.degrees(self.inclination_rad)

    @property
    def raan_deg(self) -> float:
        return math.degrees(self.raan_rad)

    @property
    def mean_anomaly_deg(self) -> float:
        return math.degrees(self.mean_anomaly_rad)

    @property
    def mean_motion_rad_s(self) -> float:
        """Keplerian mean motion, rad/s."""
        return mean_motion_rad_s(self.semi_major_axis_m)

    @property
    def period_s(self) -> float:
        """Keplerian orbital period, seconds."""
        return TWO_PI / self.mean_motion_rad_s

    @property
    def semi_latus_rectum_m(self) -> float:
        return self.semi_major_axis_m * (1.0 - self.eccentricity**2)

    @property
    def perigee_altitude_km(self) -> float:
        radius = self.semi_major_axis_m * (1.0 - self.eccentricity)
        return (radius - EARTH_RADIUS_M) / 1000.0

    @property
    def apogee_altitude_km(self) -> float:
        radius = self.semi_major_axis_m * (1.0 + self.eccentricity)
        return (radius - EARTH_RADIUS_M) / 1000.0

    def with_phase_shift(self, delta_mean_anomaly_deg: float) -> "OrbitalElements":
        """Return a copy shifted in phase (mean anomaly) within the same plane."""
        return replace(
            self,
            mean_anomaly_rad=wrap_angle(
                self.mean_anomaly_rad + math.radians(delta_mean_anomaly_deg)
            ),
        )

    def with_altitude_km(self, altitude_km: float) -> "OrbitalElements":
        """Return a copy at a different circular altitude."""
        return replace(self, semi_major_axis_m=EARTH_RADIUS_M + altitude_km * 1000.0)

    def with_inclination_deg(self, inclination_deg: float) -> "OrbitalElements":
        """Return a copy with a different inclination."""
        return replace(self, inclination_rad=math.radians(inclination_deg))

    def with_raan_deg(self, raan_deg: float) -> "OrbitalElements":
        """Return a copy in a plane rotated to a different RAAN."""
        return replace(self, raan_rad=wrap_angle(math.radians(raan_deg)))


@dataclass(frozen=True, eq=False)
class ElementColumns:
    """The orbital elements of many satellites, one float64 column per field.

    Row ``i`` of the seven columns is satellite ``i``'s
    :class:`OrbitalElements`; :meth:`element` builds that object on demand
    and :meth:`from_elements` goes the other way, both exactly (a float64
    holds a Python float unchanged).  Construction copies the columns,
    makes them read-only and checks them as :class:`OrbitalElements` checks
    one orbit, so a fleet built here never needs per-satellite objects to be
    propagated.
    """

    semi_major_axis_m: np.ndarray
    eccentricity: np.ndarray
    inclination_rad: np.ndarray
    raan_rad: np.ndarray
    arg_perigee_rad: np.ndarray
    mean_anomaly_rad: np.ndarray
    epoch_s: np.ndarray

    def __post_init__(self) -> None:
        size = None
        for name in (field.name for field in fields(self)):
            column = np.array(getattr(self, name), dtype=np.float64)
            if column.ndim != 1 or (size is not None and column.size != size):
                raise ValueError("element columns must be 1-D and of equal length")
            size = column.size
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if np.any(~(self.semi_major_axis_m > 0.0)):
            raise ValueError("semi-major axes must be positive")
        if np.any(~((self.eccentricity >= 0.0) & (self.eccentricity < 1.0))):
            raise ValueError("eccentricities must be in [0, 1)")
        if np.any(~((self.inclination_rad >= 0.0) & (self.inclination_rad <= math.pi))):
            raise ValueError("inclinations must be in [0, pi]")

    @classmethod
    def from_elements(cls, elements: Iterable[OrbitalElements]) -> "ElementColumns":
        """Columns of an element sequence, in order."""
        elements = list(elements)
        return cls(
            *(
                np.array([getattr(element, field.name) for element in elements])
                for field in fields(cls)
            )
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ElementColumns"]) -> "ElementColumns":
        """The rows of ``parts``, one after another."""
        return cls(
            *(
                np.concatenate([getattr(part, field.name) for part in parts])
                for field in fields(cls)
            )
        )

    def __len__(self) -> int:
        return self.semi_major_axis_m.size

    def element(self, index: int) -> OrbitalElements:
        """Row ``index`` as an :class:`OrbitalElements`."""
        return OrbitalElements(
            *(float(getattr(self, field.name)[index]) for field in fields(self))
        )

    def to_elements(self) -> List[OrbitalElements]:
        """Every row as an :class:`OrbitalElements`, in order."""
        rows = zip(*(getattr(self, field.name).tolist() for field in fields(self)))
        return [OrbitalElements(*row) for row in rows]

    def take(self, indices) -> "ElementColumns":
        """The rows at positional ``indices``, in that order."""
        index = np.asarray(indices, dtype=np.intp)
        return ElementColumns(
            *(getattr(self, field.name)[index] for field in fields(self))
        )


def mean_to_eccentric_anomaly(mean_anomaly_rad: float, eccentricity: float) -> float:
    """Convert mean anomaly to eccentric anomaly by solving Kepler's equation."""
    # Local import avoids a cycle: kepler.py has no dependency back on us.
    from repro.orbits.kepler import solve_kepler

    return solve_kepler(mean_anomaly_rad, eccentricity)


def eccentric_to_true_anomaly(eccentric_anomaly_rad: float, eccentricity: float) -> float:
    """Convert eccentric anomaly to true anomaly."""
    half = eccentric_anomaly_rad / 2.0
    return wrap_angle(
        2.0
        * math.atan2(
            math.sqrt(1.0 + eccentricity) * math.sin(half),
            math.sqrt(1.0 - eccentricity) * math.cos(half),
        )
    )


def true_to_eccentric_anomaly(true_anomaly_rad: float, eccentricity: float) -> float:
    """Convert true anomaly to eccentric anomaly."""
    half = true_anomaly_rad / 2.0
    return wrap_angle(
        2.0
        * math.atan2(
            math.sqrt(1.0 - eccentricity) * math.sin(half),
            math.sqrt(1.0 + eccentricity) * math.cos(half),
        )
    )


def eccentric_to_mean_anomaly(eccentric_anomaly_rad: float, eccentricity: float) -> float:
    """Convert eccentric anomaly to mean anomaly (Kepler's equation forward)."""
    return wrap_angle(
        eccentric_anomaly_rad - eccentricity * math.sin(eccentric_anomaly_rad)
    )


def mean_to_true_anomaly(mean_anomaly_rad: float, eccentricity: float) -> float:
    """Convert mean anomaly directly to true anomaly."""
    eccentric = mean_to_eccentric_anomaly(mean_anomaly_rad, eccentricity)
    return eccentric_to_true_anomaly(eccentric, eccentricity)
