"""Tests for validation check results and the report schema."""

import pytest

from repro.validate.result import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    VALIDATION_KEYS,
    VALIDATION_SCHEMA_VERSION,
    CheckResult,
    ValidationReport,
    failed,
    passed,
    validate_validation_report,
)


class TestCheckResult:
    def test_passed_helper(self):
        check = passed("oracle.x", max_error_m=0.5)
        assert check.ok
        assert check.status == STATUS_PASS
        assert check.details == {"max_error_m": 0.5}

    def test_failed_helper(self):
        check = failed("oracle.x", reason="drift")
        assert not check.ok
        assert check.status == STATUS_FAIL

    def test_to_dict_keys(self):
        entry = passed("a").to_dict()
        assert set(entry) == {"name", "status", "details", "elapsed_s"}


class TestValidationReport:
    def _report(self, *checks):
        return ValidationReport(mode="quick", seed=1, checks=list(checks))

    def test_ok_requires_all_pass(self):
        assert self._report(passed("a"), passed("b")).ok
        assert not self._report(passed("a"), failed("b")).ok

    def test_empty_report_is_ok(self):
        assert self._report().ok

    def test_counts(self):
        report = self._report(
            passed("a"),
            failed("b"),
            CheckResult(name="c", status=STATUS_ERROR),
        )
        assert report.counts == {"pass": 1, "fail": 1, "error": 1}

    def test_failures_include_errors(self):
        error = CheckResult(name="c", status=STATUS_ERROR)
        report = self._report(passed("a"), error)
        assert report.failures() == [error]

    def test_to_dict_layout(self):
        document = self._report(passed("a")).to_dict()
        assert set(document) == VALIDATION_KEYS
        assert document["schema"] == VALIDATION_SCHEMA_VERSION
        validate_validation_report(document)


class TestSchemaValidation:
    def _valid(self):
        return ValidationReport(mode="quick", seed=1, checks=[passed("a")]).to_dict()

    def test_accepts_valid(self):
        validate_validation_report(self._valid())

    def test_rejects_missing_key(self):
        document = self._valid()
        del document["counts"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_validation_report(document)

    def test_rejects_wrong_schema(self):
        document = self._valid()
        document["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            validate_validation_report(document)

    def test_rejects_non_list_checks(self):
        document = self._valid()
        document["checks"] = {}
        with pytest.raises(ValueError, match="list"):
            validate_validation_report(document)

    def test_rejects_check_missing_field(self):
        document = self._valid()
        del document["checks"][0]["elapsed_s"]
        with pytest.raises(ValueError, match="elapsed_s"):
            validate_validation_report(document)

    def test_rejects_unknown_status(self):
        document = self._valid()
        document["checks"][0]["status"] = "maybe"
        with pytest.raises(ValueError, match="status"):
            validate_validation_report(document)
