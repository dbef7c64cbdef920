"""Validation check results and the schema'd validation report.

Every oracle cross-check, fuzz invariant, and golden comparison produces a
:class:`CheckResult`; a full ``python -m repro validate`` run aggregates
them into a :class:`ValidationReport` whose :meth:`~ValidationReport.
to_dict` form is embedded in the observability run report (``--report``)
under ``extra.validation``.

Schema stability mirrors :mod:`repro.obs.report`: ``schema`` is bumped on
breaking layout changes and tests pin the current key set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Bumped when the validation-report layout changes incompatibly.
VALIDATION_SCHEMA_VERSION = 1

#: The allowed check statuses.
STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ERROR = "error"

#: Top-level keys every validation report carries.
VALIDATION_KEYS = frozenset(
    {"schema", "mode", "seed", "checks", "counts", "ok", "goldens_updated"}
)


@dataclass
class CheckResult:
    """Outcome of one validation check.

    Attributes:
        name: Dotted check identifier, e.g. ``oracle.propagator`` or
            ``fuzz.radius_bounds`` or ``golden.fig2``.
        status: ``"pass"``, ``"fail"``, or ``"error"`` (the check itself
            raised rather than returning a verdict).
        details: JSON-able measurement payload — thresholds, observed
            errors, failing seeds — enough to reproduce a failure.
        elapsed_s: Wall-clock cost of the check.
    """

    name: str
    status: str
    details: Dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_PASS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "details": self.details,
            "elapsed_s": self.elapsed_s,
        }


def passed(name: str, **details: Any) -> CheckResult:
    """A passing :class:`CheckResult` (elapsed filled in by the runner)."""
    return CheckResult(name=name, status=STATUS_PASS, details=details)


def failed(name: str, **details: Any) -> CheckResult:
    """A failing :class:`CheckResult`."""
    return CheckResult(name=name, status=STATUS_FAIL, details=details)


@dataclass
class ValidationReport:
    """Aggregate of every check run by one ``repro validate`` invocation."""

    mode: str
    seed: int
    checks: List[CheckResult] = field(default_factory=list)
    goldens_updated: bool = False

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def counts(self) -> Dict[str, int]:
        counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_ERROR: 0}
        for check in self.checks:
            counts[check.status] = counts.get(check.status, 0) + 1
        return counts

    def failures(self) -> List[CheckResult]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": VALIDATION_SCHEMA_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "checks": [check.to_dict() for check in self.checks],
            "counts": self.counts,
            "ok": self.ok,
            "goldens_updated": self.goldens_updated,
        }


def validate_validation_report(report: Dict[str, Any]) -> None:
    """Raise ValueError unless ``report`` has the current report layout."""
    missing = VALIDATION_KEYS - set(report)
    if missing:
        raise ValueError(f"validation report missing keys: {sorted(missing)}")
    if report["schema"] != VALIDATION_SCHEMA_VERSION:
        raise ValueError(
            f"validation report schema {report['schema']!r} "
            f"!= {VALIDATION_SCHEMA_VERSION}"
        )
    if not isinstance(report["checks"], list):
        raise ValueError("'checks' must be a list")
    for check in report["checks"]:
        for key in ("name", "status", "details", "elapsed_s"):
            if key not in check:
                raise ValueError(f"check entry missing {key!r}: {check}")
        if check["status"] not in (STATUS_PASS, STATUS_FAIL, STATUS_ERROR):
            raise ValueError(f"unknown check status {check['status']!r}")
