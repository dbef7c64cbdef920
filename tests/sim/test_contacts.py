"""Tests for contact plans."""

import numpy as np
import pytest

from repro.constellation.satellite import Constellation, Satellite
from repro.ground.cities import TAIPEI
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid
from repro.sim.contacts import contact_events


@pytest.fixture
def grid():
    return TimeGrid(duration_s=600.0, step_s=60.0)


class TestContactEvents:
    def test_extraction(self, grid):
        visibility = np.zeros((1, 2, 10), dtype=bool)
        visibility[0, 0, 2:5] = True  # One window for sat A.
        visibility[0, 1, 7:9] = True  # One window for sat B.
        events = contact_events(visibility, ["site"], ["A", "B"], grid)
        assert len(events) == 2
        assert events[0].sat_id == "A"
        assert events[0].start_s == 120.0
        assert events[0].stop_s == 300.0
        assert events[1].sat_id == "B"

    def test_multiple_windows_per_pair(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 1:3] = True
        visibility[0, 0, 6:8] = True
        events = contact_events(visibility, ["s"], ["A"], grid)
        assert len(events) == 2

    def test_sorted_by_start(self, grid):
        visibility = np.zeros((2, 1, 10), dtype=bool)
        visibility[0, 0, 5:6] = True
        visibility[1, 0, 1:2] = True
        events = contact_events(visibility, ["x", "y"], ["A"], grid)
        assert [event.site_name for event in events] == ["y", "x"]

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError, match="site names"):
            contact_events(np.zeros((2, 1, 5), dtype=bool), ["one"], ["A"], grid)
        with pytest.raises(ValueError, match="sat ids"):
            contact_events(np.zeros((1, 2, 5), dtype=bool), ["one"], ["A"], grid)

    def test_narrated_onto_timeline(self, grid):
        from repro.obs import timeline as obs_timeline

        obs_timeline.reset()
        try:
            visibility = np.zeros((1, 1, 10), dtype=bool)
            visibility[0, 0, 2:5] = True
            contact_events(visibility, ["taipei"], ["A"], grid)
            begins = obs_timeline.events(kind=obs_timeline.CONTACT_BEGIN)
            ends = obs_timeline.events(kind=obs_timeline.CONTACT_END)
            assert len(begins) == len(ends) == 1
            assert begins[0].subject == "A"
            assert begins[0].t_s == 120.0
            assert begins[0].attrs["site"] == "taipei"
            assert begins[0].attrs["duration_hint_s"] == pytest.approx(180.0)
            assert ends[0].t_s == 300.0
        finally:
            obs_timeline.reset()


class TestTruncatedPasses:
    def test_open_pass_closes_at_horizon_end(self):
        # 630 s horizon sampled at 60 s: 10 samples, last at 540 s — the
        # horizon end (630 s) lies beyond the last sampled instant.
        grid = TimeGrid(duration_s=630.0, step_s=60.0)
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 7:] = True  # Still visible at the final sample.
        events = contact_events(visibility, ["site"], ["A"], grid)
        assert len(events) == 1
        assert events[0].truncated
        assert events[0].stop_s == 630.0  # start + duration, not last sample.

    def test_interior_pass_is_not_truncated(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 2:5] = True
        events = contact_events(visibility, ["site"], ["A"], grid)
        assert len(events) == 1
        assert not events[0].truncated

    def test_truncated_duration_counted_to_horizon(self):
        grid = TimeGrid(duration_s=630.0, step_s=60.0)
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 9:] = True
        events = contact_events(visibility, ["site"], ["A"], grid)
        assert events[0].start_s == 540.0
        assert events[0].duration_s == pytest.approx(90.0)


def _engine_events(constellation, sites, grid):
    """Contact windows extracted from the visibility engine's tensor."""
    from repro.sim.visibility import VisibilityEngine

    visibility = VisibilityEngine(grid).visibility(constellation, sites)
    return contact_events(
        visibility,
        [site.name for site in sites],
        [satellite.sat_id for satellite in constellation],
        grid,
    )


class TestEndToEnd:
    def test_no_events_on_invisible_site(self, small_walker):
        """A site no satellite ever sees yields no contacts."""
        from repro.ground.sites import GroundSite

        grid = TimeGrid.hours(1.0, step_s=60.0)
        unreachable = GroundSite(
            name="north-pole", latitude_deg=89.9, longitude_deg=0.0,
            min_elevation_deg=85.0,
        )
        assert _engine_events(small_walker, [unreachable], grid) == []

    def test_paper_quote_few_minutes_per_day(self):
        """§2: 'a single satellite can only offer few (less than ten)
        minutes of coverage per day to a given region.'"""
        satellite = Satellite(
            sat_id="S",
            elements=OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0, raan_deg=30.0
            ),
        )
        grid = TimeGrid.one_week(step_s=60.0)
        events = _engine_events(
            Constellation([satellite]), [TAIPEI.terminal()], grid
        )
        days = grid.duration_s / 86_400.0
        minutes = sum(event.duration_s for event in events) / 60.0 / days
        assert 0.0 <= minutes < 10.0

    def test_events_match_engine(self, small_walker):
        grid = TimeGrid.hours(3.0, step_s=60.0)
        events = _engine_events(small_walker, [TAIPEI.terminal()], grid)
        # Total contact time equals the per-satellite activity sum.
        from repro.sim.visibility import VisibilityEngine

        visibility = VisibilityEngine(grid).visibility(
            small_walker, [TAIPEI.terminal()]
        )
        expected_s = visibility.sum() * grid.step_s
        total_s = sum(event.duration_s for event in events)
        assert total_s == pytest.approx(expected_s)
