"""Analysis and reporting helpers.

* :mod:`repro.analysis.gaps` — coverage gaps as timeline events.
* :mod:`repro.analysis.population` — population-weighted metrics over city sets.
* :mod:`repro.analysis.reporting` — plain-text table/series rendering used by
  the benchmark harness to print paper-style rows.
"""

from repro.analysis.population import weighted_city_coverage
from repro.analysis.reporting import Series, Table

__all__ = ["Table", "Series", "weighted_city_coverage"]
