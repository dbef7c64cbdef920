"""repro.runner — the unified Scenario/Runner experiment layer.

Every figure experiment is a :class:`Scenario`: a sweep axis, a kernel
that evaluates one sweep point's repetitions as a batch, and a reduction.
One :class:`MonteCarloRunner` executes them all in-process, with
order-independent per-run seeding so results never depend on run count,
batching or execution order.
"""

from repro.runner.monte_carlo import (
    POOL_SEED,
    MonteCarloRunner,
    run_scenario,
)
from repro.runner.scenario import (
    PointContext,
    RunContext,
    Scenario,
    draw_subsets,
    run_rng,
    run_seed_sequence,
)

__all__ = [
    "MonteCarloRunner",
    "POOL_SEED",
    "PointContext",
    "RunContext",
    "Scenario",
    "draw_subsets",
    "run_rng",
    "run_scenario",
    "run_seed_sequence",
]
