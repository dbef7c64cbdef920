"""Shared benchmark infrastructure.

Each benchmark regenerates one table/figure of the paper at the
configuration below and prints the series the figure reports.  Output is
written through ``sys.__stdout__`` so the rows appear even under pytest's
capture (no ``-s`` needed).

The expensive artifact — packed visibility of the full synthetic Starlink
pool at the 22 experiment sites over one week — is built once per session
and shared by every benchmark through :mod:`repro.experiments.common`'s
module-level cache, so each figure runs its analysis on the shared store.

The session times nothing and writes no record file.  The repo's cold,
repeated timing of every figure is ``coldbench/`` (its ``result.json``);
compare two of those with ``python -m repro obs diff A/result.json
B/result.json``.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig

#: The configuration every figure benchmark runs at.  The paper uses 100
#: Monte-Carlo runs; 20 runs at 120 s steps reproduces every figure shape in
#: minutes of wall clock (EXPERIMENTS.md records the resulting numbers).
BENCH_CONFIG = ExperimentConfig(runs=20, step_s=120.0, seed=2024)


@pytest.fixture
def report(capfd):
    """Print a Table/Series to the real stdout, bypassing pytest capture.

    pytest captures at the file-descriptor level by default, so plain
    ``print`` (and even ``sys.__stdout__``) would be swallowed; disabling
    the capture fixture for the duration of the write is the supported way
    to emit the paper-style rows unconditionally.
    """

    def _report(renderable) -> None:
        with capfd.disabled():
            print("\n" + renderable.render(), flush=True)

    return _report


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def shared_pool_visibility(bench_config):
    """Build the pool visibility once, before any figure runs."""
    from repro.experiments.common import pool_visibility

    return pool_visibility(bench_config)
