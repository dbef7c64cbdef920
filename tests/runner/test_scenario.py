"""Tests for the Scenario protocol and order-independent seed derivation."""

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.runner import RunContext, Scenario, run_rng, run_seed_sequence
from repro.runner.scenario import PointContext, draw_subsets

CONFIG = ExperimentConfig(runs=3, step_s=900.0, seed=7)


class TestSeedDerivation:
    def test_same_coordinates_same_stream(self):
        a = run_rng(2024, 2, 1, 3).integers(0, 2**31, size=8)
        b = run_rng(2024, 2, 1, 3).integers(0, 2**31, size=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "other",
        [(2025, 2, 1, 3), (2024, 3, 1, 3), (2024, 2, 0, 3), (2024, 2, 1, 4)],
        ids=["seed", "salt", "point", "run"],
    )
    def test_any_coordinate_changes_the_stream(self, other):
        base = run_rng(2024, 2, 1, 3).integers(0, 2**31, size=8)
        changed = run_rng(*other).integers(0, 2**31, size=8)
        assert not np.array_equal(base, changed)

    def test_seed_sequence_state_is_stateless(self):
        """The derivation is a pure function — no spawn counter involved."""
        first = run_seed_sequence(7, 5, 2, 9)
        again = run_seed_sequence(7, 5, 2, 9)
        assert list(first.generate_state(4)) == list(again.generate_state(4))

    def test_matches_spawn_key_contract(self):
        expected = np.random.SeedSequence(7, spawn_key=(5, 2, 9))
        derived = run_seed_sequence(7, 5, 2, 9)
        assert list(derived.generate_state(4)) == list(expected.generate_state(4))


class TestRunContext:
    def test_pool_size_reads_the_context_pool(self):
        context = ExperimentContext()
        ctx = RunContext(
            config=CONFIG, context=context, point=10, point_index=0,
            run_index=0, rng=run_rng(7, 0, 0, 0),
        )
        assert ctx.pool_size() == len(context.pool())

    def test_visibility_reads_the_context_cache(self, monkeypatch):
        """The context's cached grid store is what kernels see."""
        context = ExperimentContext()
        sentinel = object()
        monkeypatch.setattr(
            common, "packed_visibility", lambda *args, **kwargs: sentinel
        )
        context.visibility(CONFIG)
        monkeypatch.undo()
        ctx = RunContext(
            config=CONFIG, context=context, point=10, point_index=0,
            run_index=0, rng=run_rng(7, 0, 0, 0),
        )
        assert ctx.store() is sentinel


class TestScenarioDefaults:
    def test_runs_for_defaults_to_config_runs(self):
        class Minimal(Scenario):
            def sweep(self, config, context):
                return [1]

            def run_one(self, ctx, run_index):
                return 0.0

            def reduce(self, point, point_index, samples, config):
                return samples

        scenario = Minimal()
        assert scenario.runs_for(1, CONFIG) == CONFIG.runs
        assert scenario.finalize(["rows"], CONFIG) == ["rows"]

    def test_abstract_methods_required(self):
        with pytest.raises(TypeError):
            Scenario()  # type: ignore[abstract]


class _Echo(Scenario):
    """Records which context and generator each run sees."""

    name = "echo"

    def sweep(self, config, context):
        return [10]

    def run_one(self, ctx, run_index):
        return (ctx.run_index, ctx.point, float(ctx.rng.uniform()))

    def reduce(self, point, point_index, samples, config):
        return samples


class TestScenarioKernels:
    def _point(self):
        return PointContext(
            config=CONFIG, context=ExperimentContext(), point=10, point_index=2
        )

    def test_run_batch_calls_run_one_per_generator_in_order(self):
        rngs = [run_rng(7, 0, 2, run) for run in range(3)]
        samples = _Echo().run_batch(self._point(), rngs)
        expected = [
            (run, 10, float(run_rng(7, 0, 2, run).uniform())) for run in range(3)
        ]
        assert samples == expected

    def test_for_run_keeps_the_point_coordinates(self):
        rng = run_rng(7, 0, 2, 1)
        ctx = self._point().for_run(1, rng)
        assert (ctx.point, ctx.point_index, ctx.run_index) == (10, 2, 1)
        assert ctx.rng is rng
        assert ctx.config is CONFIG

    def test_scenario_without_a_kernel_names_itself(self):
        class NoKernel(Scenario):
            def sweep(self, config, context):
                return [1]

            def reduce(self, point, point_index, samples, config):
                return samples

        with pytest.raises(NotImplementedError, match="NoKernel implements neither"):
            NoKernel().run_batch(self._point(), [run_rng(7, 0, 0, 0)])

    @pytest.mark.parametrize("uses_pool", [True, False])
    def test_prepare_builds_the_store_only_for_pool_scenarios(self, uses_pool):
        built = []

        class Context(ExperimentContext):
            def store(self, config, pool_seed=0):
                built.append((config, pool_seed))

        scenario = _Echo()
        scenario.uses_pool = uses_pool
        scenario.prepare(Context(), CONFIG)
        assert built == ([(CONFIG, 0)] if uses_pool else [])


class TestDrawSubsets:
    @pytest.mark.parametrize("permute", [False, True])
    def test_rows_are_the_per_run_draws(self, permute):
        rngs = [run_rng(7, 1, 0, run) for run in range(4)]
        rows = draw_subsets(rngs, pool_size=50, size=6, permute=permute)
        assert rows.shape == (4, 6)
        for run, row in enumerate(rows):
            rng = run_rng(7, 1, 0, run)
            expected = rng.choice(50, size=6, replace=False)
            if permute:
                rng.shuffle(expected)
            assert np.array_equal(row, expected)

    def test_each_row_is_a_subset_without_repeats(self):
        rows = draw_subsets([run_rng(3, 0, 0, run) for run in range(5)], 8, 8)
        for row in rows:
            assert sorted(row) == list(range(8))
