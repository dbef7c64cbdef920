"""Tests for the golden-figure regression snapshots."""

import dataclasses
import json
import os

import pytest

from repro.validate import goldens


class TestCompareValues:
    def test_exact_scalars(self):
        assert goldens.compare_values(3, 3) == []
        assert goldens.compare_values("a", "a") == []
        assert goldens.compare_values(True, True) == []
        assert goldens.compare_values(None, None) == []

    def test_float_within_tolerance(self):
        assert goldens.compare_values(1.0, 1.0 + 1e-9) == []

    def test_float_beyond_tolerance(self):
        mismatches = goldens.compare_values(1.0, 1.1)
        assert len(mismatches) == 1
        assert "beyond tolerance" in mismatches[0]

    def test_int_float_compare_numerically(self):
        assert goldens.compare_values(2, 2.0) == []

    def test_bool_never_equals_number(self):
        assert goldens.compare_values(True, 1) != []
        assert goldens.compare_values(0, False) != []

    def test_nested_path_annotation(self):
        mismatches = goldens.compare_values(
            {"points": [{"x": 1.0}]}, {"points": [{"x": 2.0}]}
        )
        assert mismatches == [
            "values.points[0].x: 1.0 != golden 2.0 (beyond tolerance)"
        ]

    def test_missing_and_extra_keys(self):
        mismatches = goldens.compare_values({"a": 1}, {"b": 1})
        assert "values.a: not in golden" in mismatches
        assert "values.b: missing from actual" in mismatches

    def test_length_mismatch(self):
        mismatches = goldens.compare_values([1, 2], [1, 2, 3])
        assert mismatches == ["values: length 2 != golden 3"]

    def test_type_mismatch(self):
        assert goldens.compare_values("1", 1) != []

    def test_custom_tolerances(self):
        assert goldens.compare_values(1.0, 1.05, rtol=0.1) == []
        assert goldens.compare_values(1.0, 1.05, rtol=1e-6) != []


class TestCommittedSnapshots:
    """The nine snapshots shipped in the package are well-formed."""

    @pytest.mark.parametrize("name", sorted(goldens.GOLDEN_EXPERIMENTS))
    def test_snapshot_committed(self, name):
        snapshot = goldens.load_snapshot(name)
        assert snapshot is not None, f"missing golden for {name}"
        assert snapshot["schema"] == goldens.GOLDEN_SCHEMA_VERSION
        assert snapshot["name"] == name
        assert snapshot["config"] == dataclasses.asdict(goldens.GOLDEN_CONFIG)
        assert goldens._count_leaves(snapshot["values"]) > 0

    def test_registry_matches_files(self):
        stems = {
            os.path.splitext(f)[0]
            for f in os.listdir(goldens.GOLDEN_DIR)
            if f.endswith(".json")
        }
        assert stems == set(goldens.GOLDEN_EXPERIMENTS)

    def test_fig1a_matches_committed_golden(self):
        """End-to-end: the cheapest experiment reproduces its snapshot."""
        check = goldens.check_golden("fig1a")
        assert check.ok, check.details
        assert check.details["mismatches"] == []
        assert check.details["fields_compared"] == 6


    @pytest.mark.parametrize(
        "name", sorted(set(goldens.GOLDEN_EXPERIMENTS) - {"fig1a"})
    )
    def test_every_figure_matches_committed_golden(self, name):
        """Each figure reproduces its committed snapshot at GOLDEN_CONFIG,
        the same gate ``repro validate`` applies."""
        check = goldens.check_golden(name)
        assert check.ok, check.details
        assert check.name == f"golden.{name}"
        assert check.details["mismatches"] == []
        assert check.details["fields_compared"] == goldens._count_leaves(
            goldens.load_snapshot(name)["values"]
        )

    def test_check_all_goldens_runs_the_registry_in_order(self):
        checks = goldens.check_all_goldens()
        assert [c.name for c in checks] == [
            f"golden.{name}" for name in goldens.GOLDEN_EXPERIMENTS
        ]
        assert all(c.ok for c in checks), [c.details for c in checks if not c.ok]


class TestCheckGolden:
    """check_golden behaviors, isolated from the committed files."""

    @pytest.fixture
    def sandbox(self, tmp_path, monkeypatch):
        monkeypatch.setattr(goldens, "GOLDEN_DIR", str(tmp_path))
        monkeypatch.setitem(
            goldens.GOLDEN_EXPERIMENTS, "fig1a", lambda: {"x": 1.0, "n": 3}
        )
        return tmp_path

    def test_missing_snapshot_fails(self, sandbox):
        check = goldens.check_golden("fig1a")
        assert not check.ok
        assert "--update-goldens" in check.details["error"]

    def test_update_writes_and_passes(self, sandbox):
        check = goldens.check_golden("fig1a", update=True)
        assert check.ok
        assert check.details["updated"]
        with open(goldens.golden_path("fig1a"), encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["values"] == {"x": 1.0, "n": 3}

    def test_roundtrip_passes(self, sandbox):
        goldens.check_golden("fig1a", update=True)
        check = goldens.check_golden("fig1a")
        assert check.ok
        assert check.details["fields_compared"] == 2

    def test_drift_fails(self, sandbox, monkeypatch):
        goldens.check_golden("fig1a", update=True)
        monkeypatch.setitem(
            goldens.GOLDEN_EXPERIMENTS, "fig1a", lambda: {"x": 2.0, "n": 3}
        )
        check = goldens.check_golden("fig1a")
        assert not check.ok
        assert any("values.x" in m for m in check.details["mismatches"])

    def test_schema_mismatch_fails(self, sandbox):
        goldens.check_golden("fig1a", update=True)
        path = goldens.golden_path("fig1a")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["schema"] = 0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        check = goldens.check_golden("fig1a")
        assert not check.ok
        assert "re-capture" in check.details["error"]

    def test_config_mismatch_fails_before_value_diff(self, sandbox):
        goldens.check_golden("fig1a", update=True)
        path = goldens.golden_path("fig1a")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["config"]["seed"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        check = goldens.check_golden("fig1a")
        assert not check.ok
        assert any("config.seed" in m for m in check.details["config_mismatches"])
        assert "mismatches" not in check.details

    def test_snapshot_file_is_deterministic(self, sandbox):
        first = goldens.check_golden("fig1a", update=True)
        with open(first.details["path"], encoding="utf-8") as handle:
            content_a = handle.read()
        second = goldens.check_golden("fig1a", update=True)
        with open(second.details["path"], encoding="utf-8") as handle:
            content_b = handle.read()
        assert content_a == content_b
        assert content_a.endswith("\n")
