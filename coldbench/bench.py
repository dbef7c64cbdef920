"""Cold, repeated, per-layer benchmark of the figure pipeline.

Run from the repository root::

    python3 coldbench/bench.py --seed 2024                     # every workload
    python3 coldbench/bench.py --workload mc-paper --seconds 25 --trace 0
    python3 coldbench/bench.py --seed 7 --update-reference     # rewrite a reference

Each timed sample is a fresh child interpreter (``child.py``) that imports
``repro``, builds the pool and its contact store, and returns every figure
of its workload, exactly as a cold ``python -m repro all`` does.  The loop
is closed with one client: the next child starts only after the previous
one has been reaped, and workloads alternate round-robin so that host drift
spreads evenly over them.  Children run serially, with BLAS/OpenMP threads
capped at the CPU count and no Monte-Carlo worker processes.

Per workload the driver reports the median, quartiles and count of each
end-to-end metric (:data:`END_TO_END`), checks every figure against the
committed reference for the seed (``reference/<workload>.json``), and, with
``--trace 1``, runs one more child with layer wrappers installed
(:mod:`spans`) and reports per-layer metrics.  It writes ``result.json``
and ``trace-<workload>.json`` under ``--out`` and prints one JSON summary
as its last stdout line.  Exit status: 0 when every figure call succeeded
and matched, 1 when any failed, 2 on a usage error or a checkout without
the ``repro`` sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

DAY_S = 86_400.0
WEEK_S = 7 * DAY_S

ALL_FIGURES = ("fig1a", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5", "fig6", "sharing")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    figures: Tuple[str, ...]
    runs: int
    step_s: float
    duration_s: float

    def spec(self, seed: int, trace: Optional[str] = None) -> dict:
        """The generated input of one child: all it receives."""
        return {
            "name": self.name,
            "engine": self.engine,
            "figures": list(self.figures),
            "config": {
                "runs": self.runs, "step_s": self.step_s,
                "duration_s": self.duration_s, "seed": seed,
            },
            "trace": trace,
        }


#: Why each workload exists is in README.md and BENCHMARK.json.  They are
#: sized so that one cold child takes 3-7 s on a 2-CPU host, which lets a
#: 25-second run hold at least three children of every workload.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("cold-grid", "grid", ALL_FIGURES, runs=10, step_s=300.0, duration_s=WEEK_S),
        Workload(
            "cold-intervals", "intervals", ALL_FIGURES, runs=5, step_s=300.0, duration_s=DAY_S
        ),
        Workload(
            "mc-paper", "grid", ("fig3", "fig5", "fig6", "sharing"),
            runs=100, step_s=300.0, duration_s=DAY_S,
        ),
        Workload("build-fine", "grid", ("fig2",), runs=1, step_s=120.0, duration_s=WEEK_S),
    )
}

#: End-to-end metrics of one cold child -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "analysis_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics printed on the summary line of a traced run: the ones
#: that are measured (non-zero) on every workload.  ``result.json`` holds
#: every layer metric, engine-specific ones included.
SUMMARY_LAYERS: Tuple[str, ...] = (
    "setup.import_s",
    "constellation.pool_s",
    "orbits.eci_s",
    "orbits.eci_calls",
    "sim.kernels.plan_s",
    "sim.kernels.slab_self_s",
    "sim.kernels.slabs",
    "sim.store.build_self_s",
    "sim.store.mib",
    "sim.store.query_s",
    "sim.store.queries",
    "runner.runs",
    "runner.run_p50_s",
    "runner.run_p90_s",
    "runner.run_self_s",
    "runner.prepare_s",
    "runner.reduce_s",
    "obs.spans_dropped",
    "trace_overhead",
)

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run as set up (not a failed figure call)."""


@dataclasses.dataclass
class ChildRun:
    wall_s: float
    peak_rss_mib: float
    returncode: int
    result: Optional[dict]
    stderr: str


def child_env() -> Dict[str, str]:
    """The child's environment: the caller's, minus ``REPRO_*`` overrides,
    with ``src`` importable and native thread pools capped."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_ENV:
        env[key] = str(os.cpu_count() or 1)
    return env


def run_child(args: Sequence[str], out_dir: Path, env: Dict[str, str]) -> ChildRun:
    """Start one child, wait for it, and reap it with its own rusage."""
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=str(ROOT),
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return ChildRun(
        wall_s=wall,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        result=result,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# -- correctness ---------------------------------------------------------------


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def reference_shape(workload: Workload) -> dict:
    """What a reference document must have been captured under (seed aside)."""
    spec = workload.spec(seed=0)
    del spec["config"]["seed"], spec["trace"], spec["name"]
    return spec


def load_reference(workload: Workload, seed: int) -> Optional[dict]:
    """The committed figure values for ``seed``, or None when there are none."""
    path = reference_path(workload)
    if not path.exists():
        return None
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("shape") != reference_shape(workload):
        raise BenchError(
            f"{path} was captured for another shape of {workload.name}; "
            "rerun with --update-reference for each committed seed"
        )
    return document["seeds"].get(str(seed))


def write_reference(workload: Workload, seed: int, figures: dict) -> Path:
    path = reference_path(workload)
    seeds = {}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("shape") == reference_shape(workload):
            seeds = document["seeds"]
    seeds[str(seed)] = figures
    document = {
        "workload": workload.name,
        "shape": reference_shape(workload),
        "seeds": dict(sorted(seeds.items())),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def sanity_errors(value, path: str = "values", key: str = "") -> List[str]:
    """Checks that need no reference: numbers are finite, percentages lie
    in [0, 100] and fractions in [0, 1]."""
    if isinstance(value, dict):
        return [
            error
            for name, item in value.items()
            for error in sanity_errors(item, f"{path}.{name}", name)
        ]
    if isinstance(value, (list, tuple)):
        return [
            error
            for index, item in enumerate(value)
            for error in sanity_errors(item, f"{path}[{index}]", key)
        ]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    if not math.isfinite(value):
        return [f"{path}: {value!r} is not finite"]
    if "percent" in key and not 0.0 <= value <= 100.0:
        return [f"{path}: {value!r} outside [0, 100]"]
    if "fraction" in key and not 0.0 <= value <= 1.0 + 1e-9:
        return [f"{path}: {value!r} outside [0, 1]"]
    return []


def check_child(child: ChildRun, figures: Sequence[str], expected: Optional[dict]) -> List[str]:
    """One failure description per failed figure call of ``child``.

    A figure fails when it raised, when its values are not sane, or when
    they differ from ``expected`` beyond the golden-figure tolerances.
    """
    from repro.validate.goldens import compare_values

    if child.result is None:
        tail = child.stderr.strip().splitlines()[-1:] or ["no output"]
        return [f"{figure}: child exited {child.returncode}: {tail[0]}" for figure in figures]
    failures = []
    for figure in figures:
        outcome = child.result["figures"].get(figure, {"error": "not run"})
        if "error" in outcome:
            failures.append(f"{figure}: raised: {outcome['error'].strip().splitlines()[-1]}")
            continue
        problems = sanity_errors(outcome["values"])
        if expected is not None and figure in expected:
            problems += compare_values(outcome["values"], expected[figure])
        if problems:
            failures.append(f"{figure}: {problems[0]} ({len(problems)} mismatches)")
    return failures


# -- statistics and output ---------------------------------------------------------


def summarize(samples: List[float]) -> dict:
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "samples": samples, "n": len(samples), "median": statistics.median(ordered),
        "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1],
    }


def git_head() -> Optional[str]:
    """The checkout's commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def meta(args: argparse.Namespace, env: Dict[str, str]) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {key: env[key] for key in THREAD_ENV},
        "git_head": git_head(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "created_unix": time.time(),
    }


# -- driver ---------------------------------------------------------------------------


def measure(
    workloads: Sequence[Workload],
    seed: int,
    repeats: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    update_reference: bool = False,
) -> dict:
    """Run the benchmark; returns the per-workload report (no ``meta``)."""
    references = {
        workload.name: None if update_reference else load_reference(workload, seed)
        for workload in workloads
    }
    env = child_env()
    out_dir.mkdir(parents=True, exist_ok=True)
    warmup = run_child(["--warmup"], out_dir, env)
    if warmup.returncode != 0:
        raise BenchError(f"warm-up child exited {warmup.returncode}:\n{warmup.stderr}")

    children: Dict[str, List[ChildRun]] = {workload.name: [] for workload in workloads}
    start = time.perf_counter()
    deadline = seconds * len(workloads)
    rounds = 0
    while True:
        if rounds >= repeats:
            # Start another round only if it is predicted to end in time,
            # keeping room for the traced children (tracing adds up to 10%).
            round_s = sum(max(child.wall_s for child in children[w.name]) for w in workloads)
            reserve_s = 1.1 * round_s if trace else 0.0
            if seconds <= 0 or time.perf_counter() - start + round_s + reserve_s > deadline:
                break
        for workload in workloads:
            child = run_child([json.dumps(workload.spec(seed))], out_dir, env)
            children[workload.name].append(child)
        rounds += 1

    report = {}
    for workload in workloads:
        runs = children[workload.name]
        entry: dict = {"spec": workload.spec(seed)}
        traced = None
        if trace:
            trace_path = out_dir / f"trace-{workload.name}.json"
            if trace_path.exists():
                trace_path.unlink()
            traced = run_child([json.dumps(workload.spec(seed, str(trace_path)))], out_dir, env)
            entry["trace_file"] = trace_path.name

        reference = references[workload.name]
        first = runs[0].result
        # Without a reference the children must still agree with each other.
        expected = reference if reference is not None else first and {
            figure: outcome["values"]
            for figure, outcome in first["figures"].items() if "values" in outcome
        }
        failures = []
        checked = runs + ([traced] if traced is not None else [])
        for child in checked:
            failures += check_child(child, workload.figures, expected)
        attempted = len(checked) * len(workload.figures)
        if update_reference and not failures:
            entry["reference_written"] = str(write_reference(workload, seed, expected))
        entry["reference"] = "updated" if update_reference else (
            "committed" if reference is not None else "none (sanity checks only)"
        )
        entry["ops"] = {
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "ops_failed_frac": len(failures) / attempted,
        }

        ok = [child for child in runs if child.result is not None]
        entry["metrics"] = {}
        if ok:
            samples = {
                "wall_s": [child.wall_s for child in ok],
                "setup_s": [child.result["setup_s"] for child in ok],
                "analysis_s": [child.result["analysis_s"] for child in ok],
                "peak_rss_mib": [child.peak_rss_mib for child in ok],
            }
            entry["metrics"] = {
                name: {"unit": END_TO_END[name], **summarize(values)}
                for name, values in samples.items()
            }
        if traced is not None and traced.result is not None and ok:
            from spans import layer_metrics, top_level_coverage

            document = json.loads((out_dir / entry["trace_file"]).read_text(encoding="utf-8"))
            layers = layer_metrics(document)
            layers["trace_overhead"] = {
                "value": traced.wall_s / entry["metrics"]["wall_s"]["median"], "unit": "ratio",
            }
            entry["layers"] = layers
            entry["traced_child"] = {
                "wall_s": traced.wall_s,
                "setup_s": traced.result["setup_s"],
                "analysis_s": traced.result["analysis_s"],
                "top_level_coverage": top_level_coverage(
                    document, traced.result["setup_s"] + traced.result["analysis_s"]
                ),
            }
        report[workload.name] = entry
    return report


def summary_line(report: dict, trace: bool) -> dict:
    """The last stdout line: correctness, op counts, and metric values."""
    attempted = sum(entry["ops"]["attempted"] for entry in report.values())
    failed = sum(entry["ops"]["failed"] for entry in report.values())
    single = len(report) == 1
    metrics = {}
    complete = True
    for name, entry in report.items():
        if trace:
            source = entry.get("layers", {})
            picked = {metric: source.get(metric) for metric in SUMMARY_LAYERS}
        else:
            picked = {
                metric: entry["metrics"].get(metric) and {
                    "value": entry["metrics"][metric]["median"], "unit": END_TO_END[metric],
                }
                for metric in END_TO_END
            }
        for metric, value in picked.items():
            if value is None:
                complete = False
                continue
            metrics[metric if single else f"{name}.{metric}"] = {
                "value": value["value"], "unit": value["unit"],
            }
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_report(report: dict) -> None:
    for name, entry in report.items():
        ops = entry["ops"]
        print(f"== {name}: {ops['failed']}/{ops['attempted']} figure calls failed "
              f"(ops_failed_frac {ops['ops_failed_frac']:.3f}); reference {entry['reference']}")
        for failure in ops["failures"]:
            print(f"   FAIL {failure}")
        for metric, stats in entry["metrics"].items():
            print(f"   {metric:<14} median {stats['median']:10.4f} {stats['unit']:<4} "
                  f"IQR [{stats['q1']:.4f}, {stats['q3']:.4f}]  "
                  f"min {stats['min']:.4f}  max {stats['max']:.4f}  n={stats['n']}")
        for metric, value in entry.get("layers", {}).items():
            print(f"   layer {metric:<28} {value['value']:12.6g} {value['unit']}")
        if "traced_child" in entry:
            print(f"   traced child: top-level spans cover "
                  f"{entry['traced_child']['top_level_coverage']:.1%} of setup + analysis")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Cold, repeated, per-layer benchmark of the figure pipeline."
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=2024,
                        help="ExperimentConfig.seed of every child (default: 2024)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum timed children per workload (default: 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds while they fit in this many seconds "
                             "per workload (default: 0, exactly --repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: run one traced child per workload and put per-layer "
                             "metrics on the summary line; 0: end-to-end metrics (default: 1)")
    parser.add_argument("--out", type=Path, default=ROOT / ".coldbench",
                        help="directory for result.json and trace files (default: .coldbench)")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference/<workload>.json for this seed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = [WORKLOADS[name] for name in (args.workload or WORKLOADS)]
    try:
        report = measure(
            workloads, args.seed, args.repeats, args.seconds, bool(args.trace), args.out,
            update_reference=args.update_reference,
        )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    document = {"schema": 1, "meta": meta(args, child_env()), "workloads": report}
    (args.out / "result.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    line = summary_line(report, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
