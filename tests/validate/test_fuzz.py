"""Tests for the seeded property-fuzz harness."""

import pytest

from repro.validate import DEFAULT_SEED, fuzz


class TestInvariantsPass:
    """Every registered invariant holds on a handful of seeded trials."""

    @pytest.mark.parametrize("name", sorted(fuzz.INVARIANTS))
    def test_invariant_green(self, name):
        check = fuzz.run_invariant(seed=5, name=name, trials=2)
        assert check.ok, check.details["failures"]
        assert check.name == f"fuzz.{name}"
        assert check.details["trials"] == 2
        assert check.details["seed"] == 5

    @pytest.mark.parametrize("seed", [0, DEFAULT_SEED])
    @pytest.mark.parametrize("name", sorted(fuzz.INVARIANTS))
    def test_invariant_green_at_other_root_seeds(self, name, seed):
        """The gate's default root seed and the zero seed draw streams the
        seed-5 run above never sees; both must be green too."""
        check = fuzz.run_invariant(seed=seed, name=name, trials=4)
        assert check.ok, check.details["failures"]
        assert check.details["seed"] == seed


class TestHarnessMechanics:
    def test_registry_covers_documented_invariants(self):
        assert set(fuzz.INVARIANTS) == {
            "radius_bounds",
            "unit_norms",
            "scalar_batch_state",
            "visibility_split",
            "raan_drift_sign",
            "kepler_wrap",
            "interval_algebra",
        }

    def test_failures_are_collected_not_raised(self, monkeypatch):
        calls = []

        def flaky(rng):
            calls.append(None)
            if len(calls) % 2 == 0:
                raise AssertionError(f"boom {len(calls)}")

        monkeypatch.setitem(fuzz.INVARIANTS, "radius_bounds", flaky)
        check = fuzz.run_invariant(seed=1, name="radius_bounds", trials=4)
        assert not check.ok
        assert [f["trial"] for f in check.details["failures"]] == [1, 3]
        assert "boom" in check.details["failures"][0]["message"]
        assert "replay_trial(1, 'radius_bounds'" in check.details["replay"]

    def test_replay_trial_reproduces_rng(self, monkeypatch):
        draws = []

        def record(rng):
            draws.append(rng.uniform(size=3).tolist())

        monkeypatch.setitem(fuzz.INVARIANTS, "unit_norms", record)
        fuzz.run_invariant(seed=9, name="unit_norms", trials=3)
        run_draws = list(draws)
        draws.clear()
        fuzz.replay_trial(seed=9, invariant="unit_norms", trial=1)
        assert draws == [run_draws[1]]

    def test_replay_raises_on_red_trial(self, monkeypatch):
        def always_red(rng):
            raise AssertionError("still red")

        monkeypatch.setitem(fuzz.INVARIANTS, "kepler_wrap", always_red)
        with pytest.raises(AssertionError, match="still red"):
            fuzz.replay_trial(seed=1, invariant="kepler_wrap", trial=0)

    def test_trials_are_independent_of_count(self, monkeypatch):
        """Trial t draws the same inputs whether the run has 2 or 5 trials."""
        draws = []

        def record(rng):
            draws.append(float(rng.uniform()))

        monkeypatch.setitem(fuzz.INVARIANTS, "raan_drift_sign", record)
        fuzz.run_invariant(seed=4, name="raan_drift_sign", trials=2)
        short = list(draws)
        draws.clear()
        fuzz.run_invariant(seed=4, name="raan_drift_sign", trials=5)
        assert draws[:2] == short
