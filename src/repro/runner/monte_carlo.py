"""The Monte-Carlo runner: one driver for every figure experiment.

:class:`MonteCarloRunner` executes a :class:`~repro.runner.scenario.
Scenario` — sweep axis × repetitions — in-process, one sweep point after
another, against the contact store cached on the
:class:`~repro.experiments.common.ExperimentContext` (the packed
visibility tensor on the grid engine, the CSR contact windows on the
intervals engine).  A point's repetitions run as one batch: one
:meth:`~repro.runner.scenario.Scenario.run_batch` call and one
``runner.point.<name>`` span per point.

Determinism contract
--------------------

Results are a pure function of ``(scenario, config)``:

* per-run RNGs come from order-independent seed derivation
  (:func:`repro.runner.scenario.run_rng`), so run *i* draws the same sample
  whether 5 or 500 runs were requested, batched or not;
* samples are reduced in (point, run) order.

Progress
--------

After each sweep point's batch the runner logs one INFO line on the
``repro.runner`` logger, e.g. ``fig3: 20/50 runs (40%), eta 0.3s``; the
ETA extrapolates the scenario's elapsed analysis time over the runs still
to go.  The CLI shows them with ``--log-level INFO``.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentContext,
    default_context,
)
from repro.obs import metrics
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.runner.scenario import PointContext, Scenario, run_rng

_LOG = get_logger("runner")

_RUNS_TOTAL = metrics.counter("runner.runs")

#: The synthetic pool every scenario samples from (seed of the Starlink
#: shells); part of the visibility cache key.
POOL_SEED = 0


class MonteCarloRunner:
    """Executes scenarios: sweep × repetitions, in-process, one batch of
    repetitions per sweep point.

    Args:
        config: The experiment configuration.
        context: Artifact cache to run against (default: the process-default
            context, so CLI/benchmark invocations share one tensor).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        context: Optional[ExperimentContext] = None,
    ) -> None:
        if config.runs < 1:
            raise ValueError(f"runs must be >= 1, got {config.runs}")
        self.config = config
        self.context = context if context is not None else default_context()

    def run(self, scenario: Scenario) -> Any:
        """Execute a scenario end to end; returns ``scenario.finalize(...)``."""
        points, samples = self.collect(scenario)
        with span(f"reduce.{scenario.name}"):
            reduced = [
                scenario.reduce(point, index, samples[index], self.config)
                for index, point in enumerate(points)
            ]
            return scenario.finalize(reduced, self.config)

    def collect(self, scenario: Scenario) -> Tuple[List[Any], List[List[Any]]]:
        """Run every repetition; returns (points, samples per point).

        Samples are ordered by run index within each point — the raw
        material :meth:`run` reduces, exposed for tests that pin the
        order-independence of per-run seeds.
        """
        points = list(scenario.sweep(self.config, self.context))
        scenario.prepare(self.context, self.config)
        runs = [scenario.runs_for(point, self.config) for point in points]
        total = sum(runs)
        done = 0
        samples = []
        start = time.perf_counter()
        with span(f"analysis.{scenario.name}"):
            for point_index, point in enumerate(points):
                samples.append(
                    self._run_point(scenario, point, point_index, runs[point_index])
                )
                done += runs[point_index]
                eta_s = (time.perf_counter() - start) / done * (total - done)
                _LOG.info(
                    "%s: %d/%d runs (%.0f%%), eta %.1fs",
                    scenario.name, done, total, 100.0 * done / total, eta_s,
                )
        return points, samples

    def _run_point(
        self, scenario: Scenario, point: Any, point_index: int, runs: int
    ) -> List[Any]:
        """Every repetition at one point as one batch."""
        ctx = PointContext(
            config=self.config,
            context=self.context,
            point=point,
            point_index=point_index,
            pool_seed=POOL_SEED,
        )
        with span(f"runner.point.{scenario.name}"):
            rngs = [
                run_rng(self.config.seed, scenario.salt, point_index, run_index)
                for run_index in range(runs)
            ]
            samples = scenario.run_batch(ctx, rngs)
        _RUNS_TOTAL.inc(runs)
        return samples


def run_scenario(
    scenario: Scenario,
    config: ExperimentConfig,
    context: Optional[ExperimentContext] = None,
) -> Any:
    """Convenience one-shot: build a runner and execute ``scenario``."""
    return MonteCarloRunner(config, context=context).run(scenario)
