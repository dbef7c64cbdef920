"""Megaconstellation scale — the analytic interval engine's headline leg.

Runs the :mod:`examples.megaconstellation` workload at full size: 7644
satellites (Starlink Gen1 + Kuiper), all 22 experiment sites, three
simulated days.  The dense tensor at this scale would be ~700 M boolean
elements; the interval engine never allocates it — the benchmark prints
wall clock and the tracemalloc peak alongside the contact count, and
gates that the peak stays an order of magnitude under the dense tensor.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.analysis.reporting import Series

_EXAMPLE = Path(__file__).parent.parent / "examples" / "megaconstellation.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("megaconstellation", _EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_megaconstellation_intervals(report):
    example = _load_example()
    # The example times the engine itself (tracemalloc included), not the
    # constellation-construction overhead around it.
    result = example.run_megaconstellation(days=3.0)

    series = Series(
        "Megaconstellation: 7644 sats x 22 sites x 3 days (intervals)",
        "metric",
        "value",
        precision=1,
    )
    series.add_point("wall (s)", result["wall_s"])
    series.add_point("peak (MiB)", result["peak_mib"])
    series.add_point("contacts (k)", result["contacts"] / 1e3)
    series.add_point("store (MiB)", result["intervals_mib"])
    series.add_point("dense tensor (MiB)", result["dense_tensor_mib"])
    report(series)

    assert result["satellites"] >= 6000
    assert result["days"] >= 3.0
    assert result["contacts"] > 100_000
    # The whole point: peak memory far below the dense (S, N, T) tensor.
    assert result["peak_mib"] < result["dense_tensor_mib"] / 2.0
    # Megaconstellation coverage at the experiment sites is essentially
    # continuous — a sanity anchor that the windows are real.
    assert result["mean_site_coverage"] > 0.99
