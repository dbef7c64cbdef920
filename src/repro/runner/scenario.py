"""The Scenario protocol: declarative Monte-Carlo experiments.

A *scenario* declares everything the runner needs to execute a paper-style
Monte-Carlo sweep:

* a **sweep axis** (:meth:`Scenario.sweep`) — the figure's x axis: the
  points the experiment is evaluated at;
* one **kernel** that evaluates a sweep point's repetitions: either
  :meth:`Scenario.run_one`, one repetition as a function of its
  :class:`RunContext` (which carries the per-run RNG), or
  :meth:`Scenario.run_batch`, every repetition of a point at once from the
  point's :class:`PointContext` and one RNG per run.  The default
  ``run_batch`` calls ``run_one`` per run; a scenario whose runs share a
  store query overrides ``run_batch`` instead and stacks its per-run draws
  into one ``(runs, k)`` index matrix (:func:`draw_subsets`);
* a **reduction** (:meth:`Scenario.reduce` / :meth:`Scenario.finalize`) —
  how per-run samples aggregate into the figure's reported rows.

Run *i*'s sample depends only on its own RNG, which is derived
order-independently (below), so batching changes no sample: the
:class:`~repro.runner.monte_carlo.MonteCarloRunner` calls ``run_batch``
once per point and gets the samples a per-run loop would.

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
from typing import Any, List, Optional, Sequence

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
class PointContext:
    """Everything one sweep point's kernel may read.

    Kernels treat the context as read-only: the runner constructs one per
    sweep point.

    Attributes:
        config: The experiment configuration.
        context: The artifact cache (pool + contact store) the runs read.
        point: The sweep-axis value being evaluated.
        point_index: Its index on the sweep axis (part of the RNG seed).
        pool_seed: Which synthetic pool the scenario samples from.
    """

    config: ExperimentConfig
    context: ExperimentContext
    point: Any
    point_index: int
    pool_seed: int = 0

    def store(self):
        """The context's full-pool contact store for this point's
        configuration (see :meth:`ExperimentContext.store`)."""
        return self.context.store(self.config, self.pool_seed)

    def pool_size(self) -> int:
        """Number of satellites in the sampling pool."""
        return len(self.context.pool(self.pool_seed))

    def for_run(self, run_index: int, rng: np.random.Generator) -> "RunContext":
        """The :class:`RunContext` of one repetition at this point."""
        return RunContext(
            config=self.config,
            context=self.context,
            point=self.point,
            point_index=self.point_index,
            pool_seed=self.pool_seed,
            run_index=run_index,
            rng=rng,
        )


@dataclass
class RunContext(PointContext):
    """A :class:`PointContext` plus one repetition's coordinates.

    Attributes:
        run_index: The repetition number (part of the RNG seed).
        rng: This repetition's private generator.
    """

    run_index: int = 0
    rng: Optional[np.random.Generator] = field(default=None, repr=False)


def draw_subsets(
    rngs: Sequence[np.random.Generator],
    pool_size: int,
    size: int,
    permute: bool = False,
) -> np.ndarray:
    """One random ``size``-subset of the pool per run, as ``(runs, size)``.

    Row *i* is ``rngs[i].choice(pool_size, size=size, replace=False)``,
    shuffled by a second draw from the same generator when ``permute``
    (the ``rng.permutation`` of the subset): exactly the draws a per-run
    kernel makes, in the same order.
    """
    rows = np.empty((len(rngs), size), dtype=np.intp)
    for row, rng in zip(rows, rngs):
        row[:] = rng.choice(pool_size, size=size, replace=False)
        if permute:
            rng.shuffle(row)
    return rows


class Scenario(abc.ABC):
    """Base class for declarative Monte-Carlo experiments.

    Attributes:
        name: Short identifier; names the runner's spans
            (``analysis.<name>``, ``runner.point.<name>``) and bench entries.
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

    def run_batch(
        self, ctx: PointContext, rngs: Sequence[np.random.Generator]
    ) -> List[Any]:
        """Every repetition at one point: run *i* draws only from
        ``rngs[i]``.  Returns one sample per run, in run order.

        The default calls :meth:`run_one` once per run.
        """
        return [
            self.run_one(ctx.for_run(run_index, rng), run_index)
            for run_index, rng in enumerate(rngs)
        ]

    def run_one(self, ctx: RunContext, run_index: int) -> Any:
        """One Monte-Carlo repetition: a pure function of ``ctx``.

        A scenario implements this or overrides :meth:`run_batch`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither run_one nor run_batch"
        )

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
