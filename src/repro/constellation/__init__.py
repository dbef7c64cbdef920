"""Constellation generation and design.

* :mod:`repro.constellation.satellite` — the :class:`Satellite` record that
  binds an orbit to an identity (and later, to an owning party).
* :mod:`repro.constellation.walker` — Walker delta/star pattern generators.
* :mod:`repro.constellation.shells` — synthetic Starlink/Kuiper/OneWeb-like
  shells from the operators' public FCC filing parameters (the reproduction's
  substitute for a live TLE catalog; see DESIGN.md).
* :mod:`repro.constellation.sampling` — random satellite subset sampling,
  matching the paper's "randomly sample satellites from the Starlink
  network" methodology.
* :mod:`repro.constellation.design` — perturbation helpers for the Fig. 4
  design-space experiments (phase sweeps, altitude and inclination variants).
"""

from repro.constellation.satellite import Constellation, Satellite
from repro.constellation.shells import (
    KUIPER_SHELLS,
    ONEWEB_SHELLS,
    STARLINK_SHELLS,
    ShellSpec,
    build_shell,
    starlink_like_constellation,
)
from repro.constellation.walker import walker_delta, walker_star
from repro.constellation.sampling import sample_constellation

__all__ = [
    "Satellite",
    "Constellation",
    "ShellSpec",
    "STARLINK_SHELLS",
    "KUIPER_SHELLS",
    "ONEWEB_SHELLS",
    "build_shell",
    "starlink_like_constellation",
    "walker_delta",
    "walker_star",
    "sample_constellation",
]
