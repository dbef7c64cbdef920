"""Self-test of the cold benchmark on a tiny configuration.

Run from the repository root::

    PYTHONPATH=src python -m pytest coldbench/test_harness.py -q

Every child here is a real subprocess on a 1-day, 600 s, 1-run
configuration, so the whole file takes seconds, not minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import bench

TINY = {
    engine: bench.Workload(
        f"tiny-{engine}", engine, ("fig2", "fig4c"),
        runs=1, step_s=600.0, duration_s=bench.DAY_S,
    )
    for engine in ("grid", "intervals")
}

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    report = bench.measure(
        list(TINY.values()), seed=2024, repeats=1, seconds=0.0, trace=True, out_dir=out
    )
    return out, report


def test_benchmark_json_matches_the_driver():
    assert BENCHMARK["command"] == ["python3", "coldbench/bench.py"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(bench.SUMMARY_LAYERS)


def test_every_metric_is_emitted_with_its_unit(traced_report):
    _, report = traced_report
    for entry in report.values():
        assert entry["ops"]["failed"] == 0, entry["ops"]["failures"]
        for metric in BENCHMARK["end_to_end"]:
            stats = entry["metrics"][metric["name"]]
            assert stats["unit"] == metric["unit"]
            assert stats["n"] == len(stats["samples"]) == 1
            assert stats["median"] > 0
        for metric in BENCHMARK["per_layer"]:
            assert entry["layers"][metric["name"]]["unit"] == metric["unit"]
    for trace in (False, True):
        line = bench.summary_line(report, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] == 8
        names = bench.SUMMARY_LAYERS if trace else bench.END_TO_END
        assert len(line["metrics"]) == len(names) * len(report)


def test_spans_nest_and_self_time_fits(traced_report):
    from spans import self_times

    out, report = traced_report
    for name, entry in report.items():
        trace = json.loads((out / entry["trace_file"]).read_text(encoding="utf-8"))
        spans = trace["spans"]
        assert {record["workload"] for record in spans} == {name}
        for record, own in zip(spans, self_times(spans)):
            assert record["end"] >= record["start"]
            assert -1e-9 <= own <= record["end"] - record["start"] + 1e-9
            if record["parent"] is not None:
                parent = spans[record["parent"]]
                assert parent["start"] <= record["start"] <= record["end"] <= parent["end"]
        top = {record["name"] for record in spans if record["parent"] is None}
        assert {"setup.import", "setup.store", "experiments.fig2", "experiments.fig4c"} <= top
        assert entry["traced_child"]["top_level_coverage"] >= 0.9


def test_counts_are_integers(traced_report):
    _, report = traced_report
    for entry in report.values():
        for value in entry["layers"].values():
            if value["unit"] == "count":
                assert isinstance(value["value"], int)
        assert entry["layers"]["sim.kernels.slabs"]["value"] >= 1
        assert entry["layers"]["runner.runs"]["value"] >= 1
    assert report["tiny-intervals"]["layers"]["sim.intervals.windows"]["value"] > 0


def test_a_perturbed_reference_fails_the_run(tmp_path: Path, monkeypatch):
    monkeypatch.setattr(bench, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setitem(bench.WORKLOADS, TINY["grid"].name, TINY["grid"])
    args = ["--workload", TINY["grid"].name, "--repeats", "1", "--trace", "0",
            "--out", str(tmp_path / "out")]
    assert bench.main(args + ["--update-reference"]) == 0
    assert bench.main(args) == 0

    path = tmp_path / "reference" / f"{TINY['grid'].name}.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    document["seeds"]["2024"]["fig2"]["points"][0]["mean_uncovered_percent"] += 0.5
    path.write_text(json.dumps(document), encoding="utf-8")
    assert bench.main(args) == 1
    result = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))
    ops = result["workloads"][TINY["grid"].name]["ops"]
    assert ops["ops_failed_frac"] > 0
    assert ops["failures"][0].startswith("fig2:")


def test_an_unreferenced_seed_gets_sanity_checks():
    assert bench.sanity_errors({"mean_idle_percent": 50.0, "coverage_fraction": 1.0}) == []
    assert bench.sanity_errors({"points": [{"mean_idle_percent": 101.0}]})
    assert bench.sanity_errors({"coverage_fraction": float("nan")})
    assert bench.sanity_errors({"alone_coverage_fraction": -0.1})


def test_a_checkout_without_sources_exits_nonzero(tmp_path: Path, monkeypatch):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--workload", "cold-grid", "--out", str(tmp_path / "out")]) == 2
