"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, _horizon, build_parser, main
from repro.obs.export import SIM_PID, SPAN_PID, validate_chrome_trace


#: The table title each experiment subcommand prints.
EXPERIMENT_TITLES = {
    "fig1a": "Fig. 1a: 3-hour ground track of one 53 deg / 546 km satellite",
    "fig2": "Fig. 2: % time without coverage at Taipei (1 week)",
    "fig3": "Fig. 3: satellite idle time vs cities served (1 week)",
    "fig4a": "Fig. 4a: weighted coverage gain from one added satellite",
    "fig4b": "Fig. 4b: coverage gain vs phase offset",
    "fig4c": "Fig. 4c: coverage gain by design factor",
    "fig5": "Fig. 5: coverage loss when half the satellites withdraw",
    "fig6": "Fig. 6: coverage loss when the largest of 11 parties exits",
    "sharing": "Sec. 2 claim: the MP-LEO sharing upside",
}


def _one_day(title):
    """A default-horizon title as a ``--duration 86400`` run prints it."""
    return title.replace("(1 week)", "(1 day)")


def _listed_flags(capsys):
    """Every ``--flag`` the ``list`` text promises on the experiments (the
    utility-subcommand line names other parsers' flags)."""
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    experiment_lines = [
        line for line in lines if not line.startswith("utility subcommands:")
    ]
    return set(re.findall(r"--[a-z][a-z-]*", "\n".join(experiment_lines)))


def _parsed_flags(name):
    """The option strings of one experiment subparser, minus -h/--help."""
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        option
        for action in subparsers.choices[name]._actions
        for option in action.option_strings
    }
    return options - {"-h", "--help"}


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.runs == 10
        assert args.step == 300.0
        assert args.seed == 2024
        assert args.duration == pytest.approx(7 * 86400.0)
        assert args.log_level is None
        assert args.metrics_out is None
        assert args.profile is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig5", "--runs", "3", "--step", "600", "--seed", "1"]
        )
        assert args.runs == 3
        assert args.step == 600.0
        assert args.seed == 1

    @pytest.mark.parametrize("bad", ["0", "-1", "two"])
    def test_bad_runs_rejected_at_parse_time(self, bad, capsys):
        """Bad --runs values must exit 2, never traceback."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig2", "--runs", bad])
        assert exc_info.value.code == 2
        assert "python -m repro list" in capsys.readouterr().err

    def test_observability_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig2", "--duration", "86400", "--log-level", "DEBUG",
                "--metrics-out", "run.json", "--profile", "run.pstats",
                "--trace-out", "trace.json", "--track-memory",
            ]
        )
        assert args.duration == 86400.0
        assert args.log_level == "DEBUG"
        assert args.metrics_out == "run.json"
        assert args.profile == "run.pstats"
        assert args.trace_out == "trace.json"
        assert args.track_memory is True

    def test_trace_flags_default_off(self):
        args = build_parser().parse_args(["fig2"])
        assert args.trace_out is None
        assert args.track_memory is False

    def test_engine_flag_parses(self):
        assert build_parser().parse_args(["fig2"]).engine == "grid"
        args = build_parser().parse_args(["fig2", "--engine", "intervals"])
        assert args.engine == "intervals"

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig2", "--engine", "octree"])
        assert exc_info.value.code == 2

    def test_engine_flag_reaches_default_context(self, monkeypatch):
        """--engine intervals flips the context knob before the experiment
        runs (never entering ExperimentConfig)."""
        from repro import cli
        from repro.experiments import common
        from repro.experiments.common import ExperimentContext

        scratch = ExperimentContext()
        monkeypatch.setattr(common, "_DEFAULT_CONTEXT", scratch)
        seen = {}
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig2",
            lambda config: seen.setdefault("engine", scratch.engine),
        )
        assert main(["fig2", "--engine", "intervals"]) == 0
        assert seen["engine"] == "intervals"

    @pytest.mark.parametrize(
        "argv",
        [["fig4c", "--seed", "-1"], ["validate", "--quick", "--seed", "-1"]],
        ids=["fig4c", "validate"],
    )
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        """numpy rejects negative seeds; the flag does first, exit 2."""
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--seed: must be >= 0, got -1" in err
        assert "python -m repro list" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_every_experiment_rejects_negative_seed(self, name, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([name, "--seed", "-1"])
        assert exc_info.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["fig2", "--seed", "0"], ["validate", "--quick", "--seed", "0"]],
        ids=["fig2", "validate"],
    )
    def test_seed_zero_is_accepted(self, argv):
        assert build_parser().parse_args(argv).seed == 0

    def test_non_integer_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig2", "--seed", "abc"])
        assert exc_info.value.code == 2
        assert "--seed: invalid int value: 'abc'" in capsys.readouterr().err

    def test_obs_diff_parses(self):
        args = build_parser().parse_args(["obs", "diff", "a.json", "b.json"])
        assert args.command == "obs"
        assert args.obs_command == "diff"
        assert args.report_a == "a.json"
        assert args.report_b == "b.json"

    def test_obs_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["obs"])
        assert exc_info.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_command_message_is_usable(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["fig99"])
        assert exc_info.value.code != 0
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err
        assert "python -m repro list" in captured.err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("name", list(EXPERIMENTS) + ["all"])
    def test_every_experiment_help_lists_the_shared_flags(self, name, capsys):
        """``list`` promises its flags on every experiment; each
        subcommand's help must carry them all."""
        listed = _listed_flags(capsys)
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([name, "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for flag in listed:
            assert flag in out, flag

    @pytest.mark.parametrize(
        "duration_s, label, per",
        [
            (604_800.0, "1 week", "week"),
            (1_209_600.0, "2 weeks", "2 weeks"),
            (86_400.0, "1 day", "day"),
            (172_800.0, "2 days", "2 days"),
            (691_200.0, "8 days", "8 days"),
            (129_600.0, "36 hours", "36 hours"),
            (3_600.0, "1 hour", "hour"),
            (5_400.0, "1.5 hours", "1.5 hours"),
        ],
    )
    def test_horizon_labels(self, duration_s, label, per):
        """The largest whole unit names the horizon; hours otherwise."""
        assert _horizon(duration_s) == label
        assert _horizon(duration_s, per=True) == per

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        names = out.split("\n\n")[0].split()
        assert set(names) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(EXPERIMENTS) + ["all"])
    def test_every_listed_flag_is_parsed(self, name, capsys):
        """A flag deleted from the parser cannot stay in the ``list`` text."""
        assert _listed_flags(capsys) <= _parsed_flags(name)

    @pytest.mark.parametrize("name", list(EXPERIMENTS) + ["all"])
    def test_every_parsed_flag_is_listed(self, name, capsys):
        """A flag added to the parser must be announced by ``list``."""
        assert _parsed_flags(name) <= _listed_flags(capsys)

    def test_list_describes_every_observability_flag(self, capsys):
        """One line per flag: the flag, at least two spaces, and the help
        text the parser gives it."""
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        actions = [
            action for action in subparsers.choices["fig2"]._actions
            if action.option_strings[0] != "-h"
        ]
        assert "--track-memory" in {action.option_strings[0] for action in actions}
        for action in actions:
            flag = action.option_strings[0]
            assert any(
                re.fullmatch(rf"  {flag} {{2,}}{re.escape(action.help)}", line)
                for line in lines
            ), flag

    def test_list_names_utility_subcommands(self, capsys):
        assert main(["list"]) == 0
        utility = capsys.readouterr().out.splitlines()[-1]
        assert utility.startswith("utility subcommands:")
        assert "obs diff" in utility
        assert "validate" in utility

    @pytest.mark.parametrize(
        "grid_args, message",
        [
            (["--step", "0"], "step must be positive"),
            (["--step", "-5"], "step must be positive"),
            (["--step", "nan"], "must be finite"),
            (["--duration", "-1"], "duration must be positive"),
            (["--duration", "100", "--step", "300"], "exceeds duration"),
        ],
        ids=["step-zero", "step-negative", "step-nan", "duration-negative",
             "step-exceeds-duration"],
    )
    def test_bad_time_grid_is_a_usage_error(self, grid_args, message, capsys):
        """Flags describing no valid TimeGrid exit 2 at the CLI boundary."""
        with pytest.raises(SystemExit) as exc_info:
            main(["fig4c", "--runs", "1"] + grid_args)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "python -m repro list" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_every_experiment_prints_its_table(self, name, capsys):
        """Each figure subcommand runs end to end on a one-day grid and
        prints exactly one titled table, to stdout only."""
        assert main(
            [name, "--runs", "1", "--step", "3600", "--duration", "86400"]
        ) == 0
        captured = capsys.readouterr()
        titles = [line for line in captured.out.splitlines() if line.startswith("== ")]
        assert titles == [f"== {_one_day(EXPERIMENT_TITLES[name])} =="]
        assert "Traceback" not in captured.err

    def test_all_runs_every_experiment_in_order(self, capsys):
        assert main(["all", "--runs", "1", "--step", "3600", "--duration", "86400"]) == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("### ")]
        assert headers == [f"### {name} ###" for name in EXPERIMENTS]
        for title in EXPERIMENT_TITLES.values():
            assert f"== {_one_day(title)} ==" in out

    def test_fig1a_reports_the_orbit_it_names(self, capsys):
        """A 546 km circular orbit has a ~95.6 min period and a 53 deg
        inclination bounds the ground track's latitude."""
        assert main(["fig1a", "--step", "600"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = dict(line.strip().rsplit(None, 1) for line in lines[3:])
        assert float(rows["orbital period (min)"]) == pytest.approx(95.6, abs=0.1)
        assert 52.0 < float(rows["max |latitude| (deg)"]) <= 53.0
        # Earth turns ~24 deg under one ~95.6 min orbit.
        assert 23.0 < float(rows["westward node shift per orbit (deg)"]) < 25.0

    def test_fig4c_runs(self, capsys):
        """fig4c is the cheapest experiment (no pool propagation)."""
        assert main(["fig4c", "--runs", "1", "--step", "600"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4c" in out
        assert "inclination" in out

    def test_fig4b_runs(self, capsys):
        assert main(["fig4b", "--runs", "1", "--step", "600"]) == 0
        out = capsys.readouterr().out
        assert "best offset" in out

    def test_metrics_out_writes_run_report(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--metrics-out", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["command"] == "fig4c"
        assert report["config"]["runs"] == 1
        assert report["config"]["step_s"] == 600.0
        assert report["seed"] == 2024
        assert "experiment.fig4c" in report["span_stats"]
        assert "sim.engine.sessions" in report["metrics"]["counters"]
        assert "experiments.visibility_cache.hits" in report["metrics"]["counters"]

    def test_profile_writes_pstats(self, capsys, tmp_path):
        path = tmp_path / "run.pstats"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--profile", str(path)]
        ) == 0
        assert path.exists() and path.stat().st_size > 0

    def test_duration_flag_shrinks_horizon(self, capsys):
        """A one-day fig4b run must parse and complete (smaller grid)."""
        assert main(
            ["fig4b", "--runs", "1", "--step", "900", "--duration", "86400"]
        ) == 0
        assert "best offset" in capsys.readouterr().out

    def test_all_logs_each_scenario_to_completion(self, capsys):
        """Every runner-driven figure ends on a 100% progress line, in
        order; fig1a has no Monte-Carlo runner."""
        assert main(
            ["all", "--runs", "1", "--step", "3600", "--duration", "86400",
             "--log-level", "INFO"]
        ) == 0
        err = capsys.readouterr().err
        finished = re.findall(r"repro\.runner :: (\w+): (\d+)/\2 runs \(100%\)", err)
        assert [name for name, _ in finished] == [
            name for name in EXPERIMENTS if name != "fig1a"
        ]

    def test_run_report_timeline_has_the_fixed_capacity(self, capsys, tmp_path):
        from repro.obs.timeline import DEFAULT_CAPACITY

        path = tmp_path / "run.json"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--metrics-out", str(path)]
        ) == 0
        assert json.loads(path.read_text())["timeline"]["capacity"] == DEFAULT_CAPACITY

    def test_tables_stay_on_stdout_with_logging_enabled(self, capsys):
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--log-level", "INFO"]
        ) == 0
        captured = capsys.readouterr()
        assert "Fig. 4c" in captured.out
        assert "Fig. 4c" not in captured.err

    def test_output_flags_create_missing_parent_dirs(self, capsys, tmp_path):
        """Nested output paths must be created, not rejected."""
        metrics = tmp_path / "reports" / "nested" / "run.json"
        trace = tmp_path / "traces" / "trace.json"
        pstats = tmp_path / "profiles" / "run.pstats"
        assert main(
            [
                "fig4c", "--runs", "1", "--step", "600",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
                "--profile", str(pstats),
            ]
        ) == 0
        assert metrics.exists()
        assert trace.exists()
        assert pstats.exists()

    @pytest.mark.parametrize(
        "target", ["directory", "under-a-file", "trailing-separator"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4c", "--metrics-out"],
            ["fig4c", "--trace-out"],
            ["fig4c", "--profile"],
            ["validate", "--quick", "--report"],
        ],
        ids=["metrics-out", "trace-out", "profile", "validate-report"],
    )
    def test_unwritable_output_path_is_a_usage_error(
        self, argv, target, monkeypatch, capsys, tmp_path
    ):
        """A directory, a path through a regular file, or a path that ends
        in a separator exits 2 before any experiment or check runs, not
        with a traceback after it."""
        import repro.validate
        from repro import cli

        ran = []
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig4c", lambda config: ran.append("fig4c")
        )
        monkeypatch.setattr(
            repro.validate, "run_validation",
            lambda **kwargs: ran.append("validate"),
        )
        (tmp_path / "file").write_text("")
        path = {
            "directory": str(tmp_path),
            "under-a-file": str(tmp_path / "file" / "out.json"),
            "trailing-separator": str(tmp_path / "new") + os.sep,
        }[target]
        with pytest.raises(SystemExit) as exc_info:
            main(argv + [path])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-1]} {path}:" in err
        assert "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out", "--profile"])
    def test_existing_output_file_is_overwritten(
        self, flag, monkeypatch, capsys, tmp_path
    ):
        """The path probe accepts a regular file that is already there."""
        from repro import cli

        monkeypatch.setitem(cli.EXPERIMENTS, "fig4c", lambda config: None)
        path = tmp_path / "out"
        path.write_text("stale")
        assert main(["fig4c", flag, str(path)]) == 0
        assert path.read_bytes() != b"stale"

    def test_bare_output_filename_lands_in_cwd(self, monkeypatch, capsys, tmp_path):
        """A path with no directory part needs no parent created."""
        from repro import cli

        monkeypatch.setitem(cli.EXPERIMENTS, "fig4c", lambda config: None)
        monkeypatch.chdir(tmp_path)
        assert main(["fig4c", "--metrics-out", "run.json"]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["command"] == "fig4c"

    def test_metrics_out_report_is_schema_5(self, capsys, tmp_path):
        from repro.obs.report import validate_run_report

        path = tmp_path / "run.json"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--metrics-out", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["schema"] == 5
        assert "bus" not in report
        assert "histograms" not in report["metrics"]
        validate_run_report(report)

    def test_info_logging_shows_runner_progress_on_stderr(self, capsys):
        """Progress is a log line per sweep point: stderr only, while stdout
        holds nothing but the table."""
        assert main(
            ["fig4c", "--runs", "2", "--step", "600", "--log-level", "INFO"]
        ) == 0
        captured = capsys.readouterr()
        progress = [
            line for line in captured.err.splitlines() if "repro.runner ::" in line
        ]
        assert progress
        assert re.search(r"fig4c: (\d+)/\1 runs \(100%\), eta 0\.0s$", progress[-1])
        assert "runs (" not in captured.out
        assert captured.out.lstrip().startswith("== Fig. 4c")

    @pytest.mark.parametrize(
        "name, default_label, one_day_label",
        [
            ("fig2", "(1 week)", "(1 day)"),
            ("fig3", "(1 week)", "(1 day)"),
            ("fig5", "lost time (h/week)", "lost time (h/day)"),
            ("fig6", "lost (h/week)", "lost (h/day)"),
        ],
    )
    def test_tables_name_the_horizon_they_ran(
        self, name, default_label, one_day_label, capsys
    ):
        """Titles and hours-per-horizon columns follow --duration; the
        default one-week horizon keeps its labels."""
        assert main([name, "--runs", "1", "--step", "3600"]) == 0
        assert default_label in capsys.readouterr().out
        assert main(
            [name, "--runs", "1", "--step", "3600", "--duration", "86400"]
        ) == 0
        out = capsys.readouterr().out
        assert one_day_label in out
        assert "week" not in out

    def test_obs_diff_cli_round_trip(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["fig4c", "--runs", "1", "--step", "600", "--metrics-out", str(path)]
        ) == 0
        assert main(["obs", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "run diff: fig4c vs fig4c" in out

    def test_obs_diff_two_results_cli(self, capsys, tmp_path):
        """Two coldbench records render per workload and exit 0, with the
        comparability warning when their hosts differ."""
        def result(cpus, wall_s):
            stats = {"median": wall_s, "q1": wall_s, "q3": wall_s}
            return {
                "schema": 1,
                "meta": {"cpus": cpus, "thread_env": {}, "seed": 2024},
                "workloads": {"mc-paper": {
                    "metrics": {"wall_s": stats},
                    "layers": {},
                    "ops": {"attempted": 16, "failed": 0},
                }},
            }

        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(json.dumps(result(2, 2.0)))
        path_b.write_text(json.dumps(result(4, 1.0)))
        assert main(["obs", "diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("coldbench diff: ? vs ?")
        assert "warning: medians not comparable, meta differs: cpus 2 vs 4" in out
        assert "workload mc-paper:" in out
        assert "x0.50" in out
        assert "ops failed: 0/16 -> 0/16" in out

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("missing", "cannot read"),
            ("not-json", "is not JSON"),
            ("no-schema", "unsupported run-report schema None"),
            ("report-vs-result", "cannot diff a coldbench result"),
        ],
    )
    def test_obs_diff_bad_input_is_a_usage_error(
        self, bad, message, capsys, tmp_path
    ):
        """Each unreadable or mismatched input exits 2 naming the file."""
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"schema": 3, "command": "fig2"}))
        path = tmp_path / f"{bad}.json"
        if bad == "not-json":
            path.write_text("not json")
        elif bad == "no-schema":
            path.write_text(json.dumps({"command": "fig2"}))
        elif bad == "report-vs-result":
            path.write_text(json.dumps({"schema": 1, "meta": {}, "workloads": {}}))
        with pytest.raises(SystemExit) as exc_info:
            main(["obs", "diff", str(path), str(report)])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert message in err
        assert str(path) in err
        assert "python -m repro list" in err
        assert "Traceback" not in err

    def test_track_memory_fills_report_memory_section(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            [
                "fig4c", "--runs", "1", "--step", "600",
                "--track-memory", "--metrics-out", str(path),
            ]
        ) == 0
        report = json.loads(path.read_text())
        assert report["memory"]["tracemalloc"] is True
        assert report["memory"]["sampled_spans"] > 0
        assert report["memory"]["peak_kb"] > 0.0


class TestTraceOut:
    def test_fig2_trace_round_trips_with_satellite_tracks(
        self, capsys, tmp_path
    ):
        """Acceptance: a fig2 run with --trace-out yields a valid Chrome
        trace with at least one satellite track, one contact slice, and the
        wall-clock spans."""
        from repro.experiments import common
        from repro.obs import timeline as obs_timeline
        from repro.obs import trace as obs_trace

        obs_timeline.reset()
        obs_trace.reset()  # Keep the span ring from overflowing mid-session.
        path = tmp_path / "trace.json"
        try:
            assert main(
                [
                    "fig2", "--runs", "1", "--step", "1800",
                    "--duration", "86400", "--trace-out", str(path),
                ]
            ) == 0
        finally:
            common.clear_caches()
            obs_timeline.reset()
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        events = document["traceEvents"]
        contacts = [e for e in events if e.get("name") == "contact"]
        assert contacts, "no contact slices in the trace"
        satellite_subjects = {e["args"]["subject"] for e in contacts}
        assert satellite_subjects, "no satellite tracks"
        track_labels = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["pid"] == SIM_PID and "tid" in e
        }
        assert satellite_subjects & track_labels
        span_names = {
            e["name"] for e in events if e["ph"] == "X" and e["pid"] == SPAN_PID
        }
        assert "experiment.fig2" in span_names


def _module_run(stdout):
    """``python -m repro list`` in a child interpreter that imports this
    checkout's sources, writing to ``stdout``; stderr is captured."""
    import repro

    env = dict(os.environ)
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "list"],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def _assert_quiet(stderr: bytes) -> None:
    text = stderr.decode()
    assert "Traceback" not in text
    assert "BrokenPipeError" not in text
    assert "Exception ignored" not in text


class TestClosedStdout:
    def test_reader_taking_one_line(self):
        child = _module_run(subprocess.PIPE)
        assert child.stdout.readline().strip() == b"fig1a"
        child.stdout.close()
        _, stderr = child.communicate(timeout=60)
        _assert_quiet(stderr)
        assert child.returncode in (0, 1)

    def test_pipe_closed_before_any_output(self):
        """Deterministic: the very first write hits a closed pipe."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = _module_run(write_end)
        finally:
            os.close(write_end)
        _, stderr = child.communicate(timeout=60)
        _assert_quiet(stderr)
        assert child.returncode == 1
