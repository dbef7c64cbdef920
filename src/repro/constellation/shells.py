"""Synthetic megaconstellation shells.

The paper samples satellites from the live Starlink TLE catalog.  Offline we
substitute synthetic shells built from the operators' *public FCC filing*
parameters; the experiments only depend on the constellation's statistical
geometry (inclination mix, altitude, plane/phase spread), which these
parameters define (see DESIGN.md substitution table).

Shell parameters:

* **Starlink Gen1** (FCC SAT-MOD-20200417-00037): 1584 sats at 550 km/53.0°
  (72 planes), 1584 at 540 km/53.2° (72 planes), 720 at 570 km/70°,
  348 at 560 km/97.6° and 172 at 560 km/97.6°.
* **Kuiper** (FCC-20-102): 1156 at 630 km/51.9°, 1296 at 610 km/42°,
  784 at 590 km/33°.
* **OneWeb** phase 1: 588 at 1200 km/87.9° (Walker star).

To avoid the perfectly regular lattice artifacts of ideal Walker patterns
(real catalogs contain spares, drift, and partially filled planes),
:func:`build_shell` can jitter RAAN and phase with a seeded RNG.

Pools are built as :class:`~repro.orbits.elements.ElementColumns` and
wrapped by :meth:`Constellation.from_columns`, which creates a
:class:`Satellite` only where a caller reads one: the experiments draw
subsets by index and propagate from the columns, so a 4 408-satellite
pool costs a few milliseconds, not one object pair per satellite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.constellation.satellite import Constellation
from repro.constellation.walker import walker_columns
from repro.orbits.elements import ElementColumns, OrbitalElements, wrap_angles


@dataclass(frozen=True)
class ShellSpec:
    """Parameters of one constellation shell (a Walker pattern)."""

    name: str
    total_satellites: int
    planes: int
    phasing_factor: int
    inclination_deg: float
    altitude_km: float
    star: bool = False  # Walker star (polar) vs Walker delta.


STARLINK_SHELLS: Sequence[ShellSpec] = (
    ShellSpec("starlink-53.0", 1584, 72, 17, 53.0, 550.0),
    ShellSpec("starlink-53.2", 1584, 72, 17, 53.2, 540.0),
    ShellSpec("starlink-70.0", 720, 36, 11, 70.0, 570.0),
    ShellSpec("starlink-97.6-a", 348, 6, 1, 97.6, 560.0),
    ShellSpec("starlink-97.6-b", 172, 4, 1, 97.6, 560.0),
)

KUIPER_SHELLS: Sequence[ShellSpec] = (
    ShellSpec("kuiper-51.9", 1156, 34, 1, 51.9, 630.0),
    ShellSpec("kuiper-42.0", 1296, 36, 1, 42.0, 610.0),
    ShellSpec("kuiper-33.0", 784, 28, 1, 33.0, 590.0),
)

ONEWEB_SHELLS: Sequence[ShellSpec] = (
    ShellSpec("oneweb-87.9", 588, 12, 1, 87.9, 1200.0, star=True),
)


def shell_columns(
    spec: ShellSpec,
    rng: Optional[np.random.Generator] = None,
    raan_jitter_deg: float = 0.0,
    phase_jitter_deg: float = 0.0,
) -> ElementColumns:
    """The orbital elements of one shell, as columns.

    Args:
        spec: Shell parameters.
        rng: Seeded random generator; required when jitter is requested.
        raan_jitter_deg: Std-dev of Gaussian jitter applied per satellite to
            the ascending node.
        phase_jitter_deg: Std-dev of Gaussian jitter applied per satellite to
            the mean anomaly.

    Returns:
        ``spec.total_satellites`` rows.  The jitter is drawn satellite by
        satellite, RAAN before phase (one ``(n, 2)`` draw, or ``n`` draws
        when only one is non-zero), and applied as
        :meth:`OrbitalElements.with_raan_deg` and
        :meth:`~OrbitalElements.with_phase_shift` would apply it, so a
        seed gives the same elements whatever builds them.
    """
    columns = walker_columns(
        spec.total_satellites,
        spec.planes,
        spec.phasing_factor,
        spec.inclination_deg,
        spec.altitude_km,
        star=spec.star,
    )
    if raan_jitter_deg == 0.0 and phase_jitter_deg == 0.0:
        return columns
    if rng is None:
        raise ValueError("jitter requested but no rng provided")
    count = len(columns)
    raan_delta = np.zeros(count)
    phase_delta = np.zeros(count)
    if raan_jitter_deg and phase_jitter_deg:
        draws = rng.normal(0.0, [raan_jitter_deg, phase_jitter_deg], size=(count, 2))
        raan_delta, phase_delta = draws[:, 0], draws[:, 1]
    elif raan_jitter_deg:
        raan_delta = rng.normal(0.0, raan_jitter_deg, size=count)
    else:
        phase_delta = rng.normal(0.0, phase_jitter_deg, size=count)
    return replace(
        columns,
        raan_rad=wrap_angles(np.radians(np.degrees(columns.raan_rad) + raan_delta)),
        mean_anomaly_rad=wrap_angles(columns.mean_anomaly_rad + np.radians(phase_delta)),
    )


def build_shell(
    spec: ShellSpec,
    rng: Optional[np.random.Generator] = None,
    raan_jitter_deg: float = 0.0,
    phase_jitter_deg: float = 0.0,
) -> List[OrbitalElements]:
    """Generate the orbital elements of one shell (see :func:`shell_columns`)."""
    return shell_columns(spec, rng, raan_jitter_deg, phase_jitter_deg).to_elements()


def _build_constellation(
    shells: Sequence[ShellSpec],
    name: str,
    prefix: str,
    rng: Optional[np.random.Generator],
    raan_jitter_deg: float,
    phase_jitter_deg: float,
) -> Constellation:
    parts: List[ElementColumns] = []
    sat_ids: List[str] = []
    for shell in shells:
        parts.append(shell_columns(shell, rng, raan_jitter_deg, phase_jitter_deg))
        sat_ids.extend(
            map(f"{prefix}-{shell.name}-{{:04d}}".format, range(shell.total_satellites))
        )
    return Constellation.from_columns(
        ElementColumns.concatenate(parts), sat_ids, name=name
    )


def starlink_like_constellation(
    rng: Optional[np.random.Generator] = None,
    raan_jitter_deg: float = 1.0,
    phase_jitter_deg: float = 2.0,
) -> Constellation:
    """Build the full synthetic Starlink Gen1 constellation (4408 satellites).

    With the default jitter, satellites deviate slightly from the ideal
    Walker lattice, mimicking the dispersion of the live catalog.  Pass
    ``rng=None`` with zero jitter for the ideal lattice.
    """
    if rng is None and (raan_jitter_deg or phase_jitter_deg):
        rng = np.random.default_rng(0)
    return _build_constellation(
        STARLINK_SHELLS, "starlink-like", "STL", rng, raan_jitter_deg, phase_jitter_deg
    )


def kuiper_like_constellation(
    rng: Optional[np.random.Generator] = None,
    raan_jitter_deg: float = 1.0,
    phase_jitter_deg: float = 2.0,
) -> Constellation:
    """Build the synthetic Kuiper constellation (3236 satellites)."""
    if rng is None and (raan_jitter_deg or phase_jitter_deg):
        rng = np.random.default_rng(1)
    return _build_constellation(
        KUIPER_SHELLS, "kuiper-like", "KPR", rng, raan_jitter_deg, phase_jitter_deg
    )


def oneweb_like_constellation(
    rng: Optional[np.random.Generator] = None,
    raan_jitter_deg: float = 0.5,
    phase_jitter_deg: float = 1.0,
) -> Constellation:
    """Build the synthetic OneWeb phase-1 constellation (588 satellites)."""
    if rng is None and (raan_jitter_deg or phase_jitter_deg):
        rng = np.random.default_rng(2)
    return _build_constellation(
        ONEWEB_SHELLS, "oneweb-like", "OWB", rng, raan_jitter_deg, phase_jitter_deg
    )
