"""Memory ceiling — streaming reductions vs the materialized tensor.

The point of the streaming kernels is that a figure-sized reduction never
holds the full ``(S, N, T)`` visibility tensor: peak memory is bounded by
one ``(S, N, chunk)`` slab plus the reduction output.  This benchmark pins
that contract with ``tracemalloc`` at Fig. 3 scale — all 22 experiment
sites against the full synthetic Starlink pool over one simulated week —
and gates a >= 4x peak-allocation drop for the streaming path.

Both legs run at the *same* chunk size so the comparison isolates
materialize-then-reduce vs fused streaming (not chunk tuning), and
the results are asserted bit-identical, same as everywhere else.

A second gate bounds the peak RSS of the cold packed pool build — the
store every grid-engine figure reduces — measured on a fresh process.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import repro
from repro.analysis.reporting import Series
from repro.experiments.common import ALL_SITES, starlink_pool
from repro.sim.kernels import DEFAULT_STREAM_CHUNK
from repro.sim.visibility import VisibilityEngine

#: Acceptance floor: the streaming path must cut peak allocations by at
#: least this factor at figure scale.  The tensor alone is ~S*N*T bytes
#: (~0.5 GB here) while the streaming peak is one slab + output, so the
#: observed ratio is comfortably above 4 — the gate catches any change
#: that quietly re-materializes the tensor.
MIN_PEAK_RATIO = 4.0

#: Ceiling on the peak RSS of a cold full-pool packed build at the bench
#: config (22 sites x 4408 satellites, 120 s steps, one week).  The build
#: streams 64-sample slabs and peaks near 190 MiB on a 2-CPU x86-64 host
#: with numpy 2.4; packing 2048-sample slabs peaked at ~2.2 GiB.
MAX_BUILD_RSS_MIB = 512

#: Forks and execs the build script given as its first argument, then
#: prints the build's ``ru_maxrss`` (KiB on Linux) from ``os.wait4``.  A
#: child started straight from the test session would report the
#: session's own high-water mark, which Linux carries across fork and
#: exec; this launcher imports nothing heavy, so the build starts from a
#: small baseline.
_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-c"] + sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
code = os.waitstatus_to_exitcode(status)
if code:
    sys.exit(f"build exited with status {code}")
print(usage.ru_maxrss)
"""

#: The measured build: imports, builds the store, exits.  ``ru_maxrss``
#: covers the einsum's output and every other allocation, which
#: ``tracemalloc`` would partly miss.
_BUILD_SCRIPT = """
import sys
from repro.experiments.common import ALL_SITES, ExperimentConfig, starlink_pool
from repro.sim.visibility import packed_visibility

step_s, min_elevation_deg, duration_s = map(float, sys.argv[1:])
config = ExperimentConfig(
    step_s=step_s, min_elevation_deg=min_elevation_deg, duration_s=duration_s
)
sites = [city.terminal(min_elevation_deg=min_elevation_deg) for city in ALL_SITES]
packed_visibility(starlink_pool(), sites, config.grid())
"""


def _traced_peak_bytes(thunk):
    """Run ``thunk`` under tracemalloc, returning (result, peak_bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = thunk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_streaming_memory_ceiling(bench_config, report):
    grid = bench_config.grid()
    pool = starlink_pool()
    sites = [
        city.terminal(min_elevation_deg=bench_config.min_elevation_deg)
        for city in ALL_SITES
    ]
    # Same explicit chunk for both legs: the materialized path assembles
    # its (S, N, T) tensor from identical slabs, so the measured gap is
    # purely "held all at once" vs "reduced and dropped".
    engine = VisibilityEngine(grid, chunk_size=DEFAULT_STREAM_CHUNK)

    def materialized_leg():
        tensor = engine.visibility(pool, sites)
        activity = tensor.any(axis=0)  # Fig. 3's reduction, post-hoc.
        return activity

    def streaming_leg():
        return engine.satellite_activity(pool, sites)

    materialized, materialized_peak = _traced_peak_bytes(materialized_leg)
    streaming, streaming_peak = _traced_peak_bytes(streaming_leg)

    series = Series(
        "Memory ceiling: Fig. 3-sized satellite activity (peak MiB)",
        "path",
        "peak MiB",
        precision=1,
    )
    series.add_point("materialized", materialized_peak / 2**20)
    series.add_point("streaming", streaming_peak / 2**20)
    report(series)

    # Streaming is an optimization, never an approximation.
    assert np.array_equal(materialized, streaming)
    ratio = materialized_peak / max(streaming_peak, 1)
    assert ratio >= MIN_PEAK_RATIO, (
        f"streaming peak {streaming_peak / 2**20:.1f} MiB vs materialized "
        f"{materialized_peak / 2**20:.1f} MiB — ratio {ratio:.2f}x below "
        f"the {MIN_PEAK_RATIO}x ceiling contract"
    )


def test_cold_build_peak_rss(bench_config, report):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    config = (
        bench_config.step_s, bench_config.min_elevation_deg, bench_config.duration_s
    )
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, _BUILD_SCRIPT, *map(repr, config)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert launched.returncode == 0, launched.stderr
    peak_mib = int(launched.stdout) / 1024

    series = Series(
        "Cold full-pool packed build (peak RSS MiB)", "build", "peak MiB", precision=1
    )
    series.add_point("packed_visibility", peak_mib)
    report(series)

    assert peak_mib < MAX_BUILD_RSS_MIB, (
        f"cold build peaked at {peak_mib:.0f} MiB RSS, over the "
        f"{MAX_BUILD_RSS_MIB} MiB ceiling"
    )
