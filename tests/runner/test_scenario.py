"""Tests for the Scenario protocol and order-independent seed derivation."""

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import ExperimentConfig, ExperimentContext
from repro.runner import RunContext, Scenario, run_rng, run_seed_sequence

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
