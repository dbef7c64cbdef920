"""Tests for contact plans: both stores' pair windows and their narration."""

import numpy as np
import pytest

from repro.constellation.satellite import Constellation, Satellite
from repro.ground.cities import TAIPEI
from repro.obs import timeline as obs_timeline
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid
from repro.sim.contacts import narrate_contacts
from repro.sim.intervals import find_contact_intervals
from repro.sim.visibility import PackedVisibility, packed_visibility


@pytest.fixture
def grid():
    return TimeGrid(duration_s=600.0, step_s=60.0)


@pytest.fixture
def timeline():
    obs_timeline.reset()
    yield obs_timeline
    obs_timeline.reset()


def _packed(visibility, grid):
    """A PackedVisibility holding a hand-built (S, N, T) tensor."""
    return PackedVisibility(
        np.packbits(visibility, axis=2), visibility.shape[2], grid
    )


def _windows(store, site, sats, sat_ids):
    return [
        (sat_id, store.pair_windows(site, sat)) for sat, sat_id in zip(sats, sat_ids)
    ]


class TestNarrateContacts:
    def test_extraction(self, grid):
        visibility = np.zeros((1, 2, 10), dtype=bool)
        visibility[0, 0, 2:5] = True  # One window for sat A.
        visibility[0, 1, 7:9] = True  # One window for sat B.
        store = _packed(visibility, grid)
        events = narrate_contacts("site", _windows(store, 0, [0, 1], ["A", "B"]))
        assert [(e.sat_id, e.start_s, e.stop_s) for e in events] == [
            ("A", 120.0, 300.0), ("B", 420.0, 540.0),
        ]

    def test_multiple_windows_per_pair(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 1:3] = True
        visibility[0, 0, 6:8] = True
        events = narrate_contacts(
            "s", _windows(_packed(visibility, grid), 0, [0], ["A"])
        )
        assert len(events) == 2

    def test_sorted_by_start_then_satellite(self, grid):
        visibility = np.zeros((1, 3, 10), dtype=bool)
        visibility[0, 0, 5:6] = True
        visibility[0, 1, 1:2] = True
        visibility[0, 2, 5:7] = True
        store = _packed(visibility, grid)
        events = narrate_contacts("x", _windows(store, 0, [2, 0, 1], ["C", "A", "B"]))
        assert [event.sat_id for event in events] == ["B", "A", "C"]

    def test_no_satellites_no_events(self, timeline):
        assert narrate_contacts("x", []) == []
        assert timeline.events() == []

    def test_narrated_onto_timeline(self, grid, timeline):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 2:5] = True
        narrate_contacts("taipei", _windows(_packed(visibility, grid), 0, [0], ["A"]))
        begins = timeline.events(kind=timeline.CONTACT_BEGIN)
        ends = timeline.events(kind=timeline.CONTACT_END)
        assert len(begins) == len(ends) == 1
        assert begins[0].subject == "A"
        assert begins[0].t_s == 120.0
        assert begins[0].attrs["site"] == "taipei"
        assert begins[0].attrs["duration_hint_s"] == pytest.approx(180.0)
        assert ends[0].t_s == 300.0

    def test_either_truncation_flag_marks_the_event(self):
        windows = (
            np.array([0.0, 50.0, 90.0]),
            np.array([10.0, 60.0, 100.0]),
            np.array([True, False, False]),
            np.array([False, False, True]),
        )
        events = narrate_contacts("s", [("A", windows)])
        assert [event.truncated for event in events] == [True, False, True]

    def test_event_times_are_plain_floats(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 2:5] = True
        (event,) = narrate_contacts(
            "s", _windows(_packed(visibility, grid), 0, [0], ["A"])
        )
        assert type(event.start_s) is float and type(event.stop_s) is float


class TestSampledWindows:
    """``PackedVisibility.pair_windows``: runs of visible samples."""

    def test_interior_pass_is_not_truncated(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 2:5] = True
        rises, sets, cut_start, cut_end = _packed(visibility, grid).pair_windows(0, 0)
        assert (rises.tolist(), sets.tolist()) == ([120.0], [300.0])
        assert (cut_start.tolist(), cut_end.tolist()) == ([False], [False])

    def test_passes_open_at_the_horizon_edges_are_truncated(self, grid):
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, :2] = True
        visibility[0, 0, 7:] = True
        rises, sets, cut_start, cut_end = _packed(visibility, grid).pair_windows(0, 0)
        assert (rises.tolist(), sets.tolist()) == ([0.0, 420.0], [120.0, 600.0])
        assert (cut_start.tolist(), cut_end.tolist()) == (
            [True, False], [False, True]
        )

    def test_open_pass_closes_at_the_sampled_horizon(self):
        # 630 s horizon sampled at 60 s: 10 samples, last at 540 s.  The
        # sampled horizon ends at 600 s, as the intervals engine's does.
        grid = TimeGrid(duration_s=630.0, step_s=60.0)
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 9:] = True
        rises, sets, _, cut_end = _packed(visibility, grid).pair_windows(0, 0)
        assert (rises.tolist(), sets.tolist(), cut_end.tolist()) == (
            [540.0], [600.0], [True]
        )

    def test_invisible_pair_has_no_windows(self, grid):
        windows = _packed(np.zeros((2, 2, 10), dtype=bool), grid).pair_windows(1, 1)
        assert [array.size for array in windows] == [0, 0, 0, 0]

    def test_grid_start_offsets_the_windows(self):
        grid = TimeGrid(start_s=1000.0, duration_s=600.0, step_s=60.0)
        visibility = np.zeros((1, 1, 10), dtype=bool)
        visibility[0, 0, 2:5] = True
        rises, sets, _, _ = _packed(visibility, grid).pair_windows(0, 0)
        assert (rises.tolist(), sets.tolist()) == ([1120.0], [1300.0])

    def test_selects_the_pair(self, grid):
        visibility = np.zeros((2, 2, 10), dtype=bool)
        visibility[1, 0, 3:4] = True
        store = _packed(visibility, grid)
        assert store.pair_windows(1, 0)[0].tolist() == [180.0]
        assert store.pair_windows(0, 0)[0].size == 0
        assert store.pair_windows(1, 1)[0].size == 0

    def test_out_of_range_indices_raise(self, grid):
        store = _packed(np.zeros((1, 2, 10), dtype=bool), grid)
        with pytest.raises(IndexError):
            store.pair_windows(1, 0)
        with pytest.raises(IndexError):
            store.pair_windows(0, 2)


class TestEndToEnd:
    def test_no_windows_at_an_invisible_site(self, small_walker):
        """A site no satellite ever sees has no contacts."""
        from repro.ground.sites import GroundSite

        grid = TimeGrid.hours(1.0, step_s=60.0)
        unreachable = GroundSite(
            name="north-pole", latitude_deg=89.9, longitude_deg=0.0,
            min_elevation_deg=85.0,
        )
        store = packed_visibility(small_walker, [unreachable], grid)
        windows = _windows(
            store, 0, range(len(small_walker)),
            [satellite.sat_id for satellite in small_walker],
        )
        assert narrate_contacts(unreachable.name, windows) == []

    @pytest.mark.parametrize("engine", ["grid", "intervals"])
    def test_paper_quote_few_minutes_per_day(self, engine):
        """§2: 'a single satellite can only offer few (less than ten)
        minutes of coverage per day to a given region.'"""
        satellite = Satellite(
            sat_id="S",
            elements=OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0, raan_deg=30.0
            ),
        )
        grid = TimeGrid.one_week(step_s=60.0)
        build = packed_visibility if engine == "grid" else find_contact_intervals
        store = build(Constellation([satellite]), [TAIPEI.terminal()], grid)
        rises, sets, _, _ = store.pair_windows(0, 0)
        days = grid.duration_s / 86_400.0
        minutes = float((sets - rises).sum()) / 60.0 / days
        assert 0.0 < minutes < 10.0

    def test_window_time_matches_the_visible_samples(self, small_walker):
        from repro.sim.visibility import VisibilityEngine

        grid = TimeGrid.hours(3.0, step_s=60.0)
        sites = [TAIPEI.terminal()]
        store = packed_visibility(small_walker, sites, grid)
        total_s = sum(
            float((sets - rises).sum())
            for rises, sets, _, _ in (
                store.pair_windows(0, sat) for sat in range(len(small_walker))
            )
        )
        visibility = VisibilityEngine(grid).visibility(small_walker, sites)
        assert total_s == visibility.sum() * grid.step_s
