"""The Scenario protocol: declarative Monte-Carlo experiments.

A *scenario* declares everything the runner needs to execute a paper-style
Monte-Carlo sweep:

* a **sweep axis** (:meth:`Scenario.sweep`) — the figure's x axis: the
  points the experiment is evaluated at;
* a pure **kernel** (:meth:`Scenario.run_one`) — one Monte-Carlo repetition
  at one point, a function of its :class:`RunContext` (which carries the
  per-run RNG) and nothing else;
* a **reduction** (:meth:`Scenario.reduce` / :meth:`Scenario.finalize`) —
  how per-run samples aggregate into the figure's reported rows.

Because the kernel is pure and the per-run RNG is derived
order-independently (below), the :class:`~repro.runner.monte_carlo.
MonteCarloRunner` may execute repetitions in any order and produce
identical results.

Seed derivation
---------------

Run *i* of sweep-point *p* of a scenario with stream salt *s* draws from::

    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(s, p, i)))

``spawn_key`` is the stateless form of :meth:`numpy.random.SeedSequence.
spawn`: the child sequence depends only on ``(seed, s, p, i)``, never on
how many runs were requested or which order they execute in.  The previous
experiment layer drew every run from one sequential generator, so run *i*'s
sample silently depended on ``runs`` and on every run before it — the
regression tests in ``tests/runner`` pin the new invariant.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, List, Sequence

import numpy as np

from repro.experiments.common import ExperimentConfig, ExperimentContext


def run_seed_sequence(
    seed: int, salt: int, point_index: int, run_index: int
) -> np.random.SeedSequence:
    """The order-independent seed of one (scenario, point, run) kernel."""
    return np.random.SeedSequence(seed, spawn_key=(salt, point_index, run_index))


def run_rng(
    seed: int, salt: int, point_index: int, run_index: int
) -> np.random.Generator:
    """A fresh generator for one Monte-Carlo repetition (see module doc)."""
    return np.random.default_rng(run_seed_sequence(seed, salt, point_index, run_index))


@dataclass
class RunContext:
    """Everything one Monte-Carlo repetition may read.

    Kernels treat the context as read-only: the runner constructs one per
    repetition.

    Attributes:
        config: The experiment configuration.
        context: The artifact cache (pool + contact store) this run reads.
        point: The sweep-axis value being evaluated.
        point_index: Its index on the sweep axis (part of the RNG seed).
        run_index: The repetition number (part of the RNG seed).
        rng: This repetition's private generator.
        pool_seed: Which synthetic pool the scenario samples from.
    """

    config: ExperimentConfig
    context: ExperimentContext
    point: Any
    point_index: int
    run_index: int
    rng: np.random.Generator = field(repr=False)
    pool_seed: int = 0

    def store(self):
        """The context's full-pool contact store for this run's
        configuration (see :meth:`ExperimentContext.store`)."""
        return self.context.store(self.config, self.pool_seed)

    def pool_size(self) -> int:
        """Number of satellites in the sampling pool."""
        return len(self.context.pool(self.pool_seed))


class Scenario(abc.ABC):
    """Base class for declarative Monte-Carlo experiments.

    Attributes:
        name: Short identifier; names the runner's spans
            (``analysis.<name>``, ``runner.run.<name>``) and bench entries.
        salt: The scenario's RNG stream salt.  Distinct per scenario so two
            scenarios at the same seed never draw correlated samples; the
            values carry over from the old per-figure ``config.rng(salt=N)``
            streams.
        uses_pool: Whether kernels read the pool's contact store.  When
            True the runner builds the store once up front.
    """

    name: str = "scenario"
    salt: int = 0
    uses_pool: bool = True

    def prepare(self, context: ExperimentContext, config: ExperimentConfig) -> None:
        """Build shared artifacts before any kernel runs."""
        if self.uses_pool:
            context.store(config)

    @abc.abstractmethod
    def sweep(
        self, config: ExperimentConfig, context: ExperimentContext
    ) -> Sequence[Any]:
        """The sweep axis.  Validate inputs here — this runs before
        :meth:`prepare`, so a bad sweep raises before any artifact builds."""

    def runs_for(self, point: Any, config: ExperimentConfig) -> int:
        """Repetitions at one point (default ``config.runs``; deterministic
        scenarios return 1)."""
        return config.runs

    @abc.abstractmethod
    def run_one(self, ctx: RunContext, run_index: int) -> Any:
        """One Monte-Carlo repetition: a pure function of ``ctx``."""

    @abc.abstractmethod
    def reduce(
        self,
        point: Any,
        point_index: int,
        samples: List[Any],
        config: ExperimentConfig,
    ) -> Any:
        """Aggregate one point's samples (ordered by run index) into the
        figure's reported row."""

    def finalize(self, reduced: List[Any], config: ExperimentConfig) -> Any:
        """Assemble the experiment's result object from the reduced rows."""
        return reduced
