"""Tests for simulation time grids."""

import numpy as np
import pytest

from repro.constants import WEEK_S
from repro.sim.clock import TimeGrid


class TestTimeGrid:
    def test_one_week_count(self):
        grid = TimeGrid.one_week(step_s=60.0)
        assert grid.count == 10_080

    def test_times_shape_and_spacing(self):
        grid = TimeGrid(duration_s=600.0, step_s=60.0)
        times = grid.times_s
        assert times.shape == (10,)
        assert np.allclose(np.diff(times), 60.0)

    def test_start_offset(self):
        grid = TimeGrid(start_s=100.0, duration_s=300.0, step_s=100.0)
        assert list(grid.times_s) == [100.0, 200.0, 300.0]

    def test_hours_constructor(self):
        grid = TimeGrid.hours(2.0, step_s=30.0)
        assert grid.duration_s == 7200.0
        assert grid.count == 240

    def test_one_week_duration(self):
        assert TimeGrid.one_week().duration_s == WEEK_S

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError, match="duration"):
            TimeGrid(duration_s=0.0)

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError, match="step"):
            TimeGrid(duration_s=100.0, step_s=0.0)

    def test_rejects_step_beyond_duration(self):
        with pytest.raises(ValueError, match="exceeds duration"):
            TimeGrid(duration_s=10.0, step_s=60.0)

    @pytest.mark.parametrize(
        "duration_s, step_s",
        [(100.0, float("nan")), (float("inf"), 10.0)],
        ids=["nan-step", "inf-duration"],
    )
    def test_rejects_non_finite(self, duration_s, step_s):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(duration_s=duration_s, step_s=step_s)

    def test_count_drops_a_partial_step(self):
        grid = TimeGrid(duration_s=95.0, step_s=10.0)
        assert grid.count == 9
        assert grid.times_s[-1] == 80.0

    def test_chunks_cover_all_times(self):
        grid = TimeGrid(duration_s=1000.0, step_s=10.0)
        chunks = list(grid.chunks(17))
        assert sum(chunk.size for chunk in chunks) == grid.count
        reassembled = np.concatenate(chunks)
        assert np.array_equal(reassembled, grid.times_s)

    def test_chunks_max_size(self):
        grid = TimeGrid(duration_s=1000.0, step_s=10.0)
        assert all(chunk.size <= 17 for chunk in grid.chunks(17))

    def test_chunks_reject_zero(self):
        grid = TimeGrid(duration_s=100.0, step_s=10.0)
        with pytest.raises(ValueError, match="chunk_size"):
            list(grid.chunks(0))

    def test_frozen(self):
        grid = TimeGrid(duration_s=100.0, step_s=10.0)
        with pytest.raises(AttributeError):
            grid.step_s = 5.0
