"""Golden-figure regression snapshots.

Small fixed-seed runs of every figure experiment (fig1a..fig6 plus the §2
sharing-upside measurement), captured as committed JSON under
``src/repro/validate/goldens/`` and compared field-by-field on every
``repro validate`` run.  The runner's order-independent seeding makes each
snapshot a pure function of :data:`GOLDEN_CONFIG`, so any drift means the
simulation pipeline changed behavior — exactly what a perf PR must prove
it did *not* do.

Tolerances: integers, strings, and booleans compare exactly; floats
compare with ``rel_tol`` :data:`DEFAULT_RTOL` / ``abs_tol``
:data:`DEFAULT_ATOL` (loose enough to absorb last-ulp BLAS/einsum
differences across platforms, tight enough that any real behavioral
change — a changed sample, a shifted contact edge — trips the gate).

Updating: run ``python -m repro validate --update-goldens`` after an
*intentional* behavior change, eyeball the JSON diff, and say in the PR
why every drifted field moved.  Never update to silence a failure you
cannot explain.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.common import ExperimentConfig
from repro.obs import get_logger
from repro.validate.result import CheckResult, failed, passed

_LOG = get_logger(__name__)

#: Golden-file layout version (independent of the validation-report schema).
GOLDEN_SCHEMA_VERSION = 1

#: Where the committed snapshots live (inside the package so the suite
#: works from a source checkout with PYTHONPATH=src).
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

#: The fixed configuration every golden is captured under: small enough to
#: run in seconds, big enough that all reduction paths execute.  One day at
#: 600 s steps, 2 Monte-Carlo runs, the default seed.
GOLDEN_CONFIG = ExperimentConfig(runs=2, step_s=600.0, seed=2024, duration_s=86_400.0)

#: Float comparison tolerances (see module docstring).
DEFAULT_RTOL = 1e-6
DEFAULT_ATOL = 1e-9


def _points_dict(result: Any) -> Dict[str, Any]:
    """Snapshot a result whose payload is a list of point dataclasses."""
    return {"points": [dataclasses.asdict(point) for point in result.points]}


def _capture_fig1a() -> Dict[str, Any]:
    from repro.orbits.elements import OrbitalElements
    from repro.orbits.groundtrack import (
        compute_ground_track,
        nodal_shift_deg_per_orbit,
    )

    elements = OrbitalElements.from_degrees(altitude_km=546.0, inclination_deg=53.0)
    track = compute_ground_track(elements, 3 * 3600.0, step_s=30.0)
    return {
        "period_min": elements.period_s / 60.0,
        "max_latitude_deg": track.max_latitude_deg,
        "nodal_shift_deg_per_orbit": nodal_shift_deg_per_orbit(elements),
        "samples": len(track),
        "first_longitude_deg": float(track.longitudes_deg[0]),
        "last_longitude_deg": float(track.longitudes_deg[-1]),
    }


def _capture_fig2() -> Dict[str, Any]:
    from repro.experiments.fig2_coverage_vs_size import run_fig2

    return _points_dict(run_fig2(GOLDEN_CONFIG))


def _capture_fig3() -> Dict[str, Any]:
    from repro.experiments.fig3_idle_vs_cities import run_fig3

    return _points_dict(run_fig3(GOLDEN_CONFIG))


def _capture_fig4a() -> Dict[str, Any]:
    from repro.experiments.fig4a_single_addition import run_fig4a

    return _points_dict(run_fig4a(GOLDEN_CONFIG))


def _capture_fig4b() -> Dict[str, Any]:
    from repro.experiments.fig4b_phase_sweep import run_fig4b

    result = run_fig4b(GOLDEN_CONFIG)
    snapshot = _points_dict(result)
    snapshot["best_offset_deg"] = result.best_offset_deg()
    return snapshot


def _capture_fig4c() -> Dict[str, Any]:
    from repro.experiments.fig4c_design_factors import run_fig4c

    return {"gains_hours": dict(run_fig4c(GOLDEN_CONFIG).gains_hours)}


def _capture_fig5() -> Dict[str, Any]:
    from repro.experiments.fig5_withdrawal import run_fig5

    return _points_dict(run_fig5(GOLDEN_CONFIG))


def _capture_fig6() -> Dict[str, Any]:
    from repro.experiments.fig6_party_skew import run_fig6

    return _points_dict(run_fig6(GOLDEN_CONFIG))


def _capture_sharing() -> Dict[str, Any]:
    from repro.experiments.sharing_upside import run_sharing_upside

    result = run_sharing_upside(GOLDEN_CONFIG)
    return {
        "upside": dataclasses.asdict(result.upside),
        "satellite_multiplier": result.upside.satellite_multiplier,
        "calibration": [[size, coverage] for size, coverage in result.calibration],
    }


#: Every golden experiment, in capture order.  Keys are the snapshot file
#: stems and the ``golden.<name>`` check names.
GOLDEN_EXPERIMENTS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "fig1a": _capture_fig1a,
    "fig2": _capture_fig2,
    "fig3": _capture_fig3,
    "fig4a": _capture_fig4a,
    "fig4b": _capture_fig4b,
    "fig4c": _capture_fig4c,
    "fig5": _capture_fig5,
    "fig6": _capture_fig6,
    "sharing": _capture_sharing,
}


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def capture_snapshot(name: str) -> Dict[str, Any]:
    """Run one golden experiment and return its snapshot document."""
    values = GOLDEN_EXPERIMENTS[name]()
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "name": name,
        "config": dataclasses.asdict(GOLDEN_CONFIG),
        "values": values,
    }


def write_snapshot(name: str, snapshot: Dict[str, Any]) -> str:
    """Write a snapshot to its committed location; returns the path."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = golden_path(name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(name: str) -> Optional[Dict[str, Any]]:
    """Load a committed snapshot, or None when it has never been captured."""
    path = golden_path(name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_values(
    actual: Any,
    golden: Any,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    path: str = "values",
) -> List[str]:
    """Field-by-field comparison; returns mismatch descriptions (empty = ok).

    Dicts and lists recurse; floats compare with tolerances; everything
    else (ints, strings, bools, None) compares exactly.  JSON has one
    number type, so an int on one side and a float on the other compare
    numerically — except booleans, which never equal numbers here.
    """
    if isinstance(actual, dict) and isinstance(golden, dict):
        mismatches = []
        for key in sorted(set(actual) | set(golden)):
            if key not in actual:
                mismatches.append(f"{path}.{key}: missing from actual")
            elif key not in golden:
                mismatches.append(f"{path}.{key}: not in golden")
            else:
                mismatches.extend(
                    compare_values(
                        actual[key], golden[key], rtol, atol, f"{path}.{key}"
                    )
                )
        return mismatches
    if isinstance(actual, (list, tuple)) and isinstance(golden, (list, tuple)):
        if len(actual) != len(golden):
            return [f"{path}: length {len(actual)} != golden {len(golden)}"]
        mismatches = []
        for index, (a, g) in enumerate(zip(actual, golden)):
            mismatches.extend(compare_values(a, g, rtol, atol, f"{path}[{index}]"))
        return mismatches
    actual_is_bool = isinstance(actual, bool)
    golden_is_bool = isinstance(golden, bool)
    if not actual_is_bool and not golden_is_bool:
        if isinstance(actual, (int, float)) and isinstance(golden, (int, float)):
            if math.isclose(actual, golden, rel_tol=rtol, abs_tol=atol):
                return []
            return [f"{path}: {actual!r} != golden {golden!r} (beyond tolerance)"]
    if actual_is_bool == golden_is_bool and actual == golden:
        return []
    return [f"{path}: {actual!r} != golden {golden!r}"]


def check_golden(
    name: str,
    update: bool = False,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CheckResult:
    """Capture one golden experiment and compare (or rewrite) its snapshot."""
    actual = capture_snapshot(name)
    if update:
        path = write_snapshot(name, actual)
        _LOG.info("golden %s updated at %s", name, path)
        return passed(f"golden.{name}", updated=True, path=path)

    golden = load_snapshot(name)
    if golden is None:
        return failed(
            f"golden.{name}",
            error="no committed snapshot; run with --update-goldens",
            path=golden_path(name),
        )
    if golden.get("schema") != GOLDEN_SCHEMA_VERSION:
        return failed(
            f"golden.{name}",
            error=(
                f"snapshot schema {golden.get('schema')!r} != "
                f"{GOLDEN_SCHEMA_VERSION}; re-capture with --update-goldens"
            ),
        )
    # The config is part of the contract: a snapshot captured under a
    # different configuration is not comparable, flag it before diffing.
    config_mismatches = compare_values(
        actual["config"], golden.get("config"), rtol=0.0, atol=0.0, path="config"
    )
    if config_mismatches:
        return failed(f"golden.{name}", config_mismatches=config_mismatches)
    mismatches = compare_values(actual["values"], golden["values"], rtol, atol)
    details = {
        "rtol": rtol,
        "atol": atol,
        "fields_compared": _count_leaves(golden["values"]),
        "mismatches": mismatches,
    }
    if mismatches:
        return failed(f"golden.{name}", **details)
    return passed(f"golden.{name}", **details)


def _count_leaves(value: Any) -> int:
    if isinstance(value, dict):
        return sum(_count_leaves(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_count_leaves(v) for v in value)
    return 1
