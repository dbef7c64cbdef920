"""Tests for gap-distribution analytics."""

import numpy as np
import pytest

from repro.analysis.gaps import gap_timeline_events, gap_timeline_events_from_intervals
from repro.obs import timeline as obs_timeline
from repro.sim.coverage import gap_lengths_s
from repro.sim.intervals import IntervalSet


class TestIntervalGapsAgainstMask:
    """``IntervalSet.gap_lengths_s`` against the grid's ``gap_lengths_s``."""

    def test_mask_gaps(self):
        mask = np.array([True, False, False, True, False, True])
        assert gap_lengths_s(mask, 60.0).tolist() == [120.0, 60.0]

    @pytest.mark.parametrize(
        "bits",
        [
            "0110011100",
            "1001100011",
            "0000000000",
            "1111111111",
            "1010101010",
        ],
        ids=["edge-gaps", "edge-contacts", "never-covered", "always-covered",
             "alternating"],
    )
    def test_intervals_match_mask_on_sample_edges(self, bits):
        """Coverage whose edges sit on samples yields the grid's gaps."""
        mask = np.array([bit == "1" for bit in bits])
        coverage = IntervalSet.from_pairs(
            [(i * 60.0, (i + 1) * 60.0) for i in np.flatnonzero(mask)],
            0.0, mask.size * 60.0,
        )
        np.testing.assert_array_equal(
            coverage.gap_lengths_s(), gap_lengths_s(mask, 60.0)
        )

    def test_intervals_keep_exact_gap_lengths(self):
        coverage = IntervalSet.from_pairs([(12.5, 40.0), (47.25, 90.0)], 0.0, 100.0)
        np.testing.assert_allclose(coverage.gap_lengths_s(), [12.5, 7.25, 10.0])


class TestGapTimelineEvents:
    """Hand-computed timelines: every edge case gets explicit flags."""

    def test_interior_gap(self):
        # Covered, 2 uncovered steps, covered: one gap [60, 180).
        mask = np.array([True, False, False, True])
        events = gap_timeline_events(mask, 60.0, site="taipei", emit=False)
        assert [event.kind for event in events] == ["gap.open", "gap.close"]
        open_event, close_event = events
        assert open_event.t_s == 60.0
        assert close_event.t_s == 180.0
        assert open_event.attrs["gap_s"] == pytest.approx(120.0)
        assert "at_run_start" not in open_event.attrs
        assert "at_run_end" not in close_event.attrs

    def test_run_start_gap_flagged(self):
        mask = np.array([False, False, True, True])
        events = gap_timeline_events(mask, 60.0, site="taipei", emit=False)
        assert events[0].t_s == 0.0
        assert events[0].attrs["at_run_start"] is True
        assert "at_run_end" not in events[1].attrs

    def test_run_end_gap_flagged(self):
        mask = np.array([True, True, False])
        events = gap_timeline_events(mask, 60.0, site="taipei", emit=False)
        assert events[1].t_s == pytest.approx(180.0)
        assert events[1].attrs["at_run_end"] is True
        assert "at_run_start" not in events[0].attrs

    def test_never_covered_carries_both_flags(self):
        """Zero-length contact: the site never sees a satellite at all."""
        events = gap_timeline_events(
            np.zeros(4, dtype=bool), 30.0, site="taipei", emit=False
        )
        assert len(events) == 2
        assert events[0].attrs["at_run_start"] is True
        assert events[1].attrs["at_run_end"] is True
        assert events[0].attrs["gap_s"] == pytest.approx(120.0)

    def test_fully_covered_emits_nothing(self):
        events = gap_timeline_events(
            np.ones(5, dtype=bool), 60.0, site="taipei", emit=False
        )
        assert events == []

    def test_single_step_contact_splits_gap(self):
        # One covered sample in the middle: two gaps around it.
        mask = np.array([False, True, False])
        events = gap_timeline_events(mask, 60.0, site="taipei", emit=False)
        assert [event.kind for event in events] == [
            "gap.open", "gap.close", "gap.open", "gap.close",
        ]
        assert events[1].t_s == 60.0  # First gap closes as the contact rises.
        assert events[2].t_s == 120.0  # Second opens as it sets.

    def test_start_offset_shifts_times(self):
        mask = np.array([False, True])
        events = gap_timeline_events(
            mask, 60.0, site="taipei", start_s=1000.0, emit=False
        )
        assert events[0].t_s == 1000.0
        assert events[0].attrs["at_run_start"] is True

    def test_emit_records_on_global_timeline(self):
        obs_timeline.reset()
        try:
            gap_timeline_events(
                np.array([True, False, True]), 60.0, site="taipei"
            )
            recorded = obs_timeline.events(kind=obs_timeline.GAP_OPEN)
            assert len(recorded) == 1
            assert recorded[0].subject == "taipei"
        finally:
            obs_timeline.reset()

    def test_rejects_2d_mask(self):
        with pytest.raises(ValueError, match="1-D"):
            gap_timeline_events(
                np.zeros((2, 2), dtype=bool), 60.0, site="x", emit=False
            )


def _sampled_coverage(mask, step_s=60.0):
    """The IntervalSet whose edges sit exactly on ``mask``'s samples."""
    return IntervalSet.from_pairs(
        [(i * step_s, (i + 1) * step_s) for i in np.flatnonzero(mask)],
        0.0, mask.size * step_s,
    )


def _fields(events):
    return [(event.kind, event.t_s, event.subject, event.attrs) for event in events]


class TestGapTimelineEventsFromIntervals:
    @pytest.mark.parametrize(
        "bits",
        ["0110011100", "1001100011", "0000000000", "1111111111", "1010101010",
         "0100000000", "0000000010", "1"],
        ids=["edge-gaps", "edge-contacts", "never-covered", "always-covered",
             "alternating", "early-contact", "late-contact", "one-sample"],
    )
    def test_matches_mask_events_on_sample_edges(self, bits):
        mask = np.array([bit == "1" for bit in bits])
        from_mask = gap_timeline_events(mask, 60.0, site="taipei", emit=False)
        from_intervals = gap_timeline_events_from_intervals(
            _sampled_coverage(mask), site="taipei", emit=False
        )
        assert _fields(from_intervals) == _fields(from_mask)

    def test_exact_edges_and_boundary_flags(self):
        coverage = IntervalSet.from_pairs([(12.5, 40.0)], 0.0, 100.0)
        events = gap_timeline_events_from_intervals(coverage, "taipei", emit=False)
        assert [(event.kind, event.t_s) for event in events] == [
            ("gap.open", 0.0), ("gap.close", 12.5),
            ("gap.open", 40.0), ("gap.close", 100.0),
        ]
        assert events[0].attrs == {"gap_s": 12.5, "at_run_start": True}
        assert events[1].attrs == {"gap_s": 12.5}
        assert events[3].attrs == {"gap_s": 60.0, "at_run_end": True}

    def test_never_covered_is_one_flagged_gap(self):
        coverage = IntervalSet.from_pairs([], 100.0, 400.0)
        opened, closed = gap_timeline_events_from_intervals(
            coverage, "taipei", emit=False
        )
        assert (opened.t_s, closed.t_s) == (100.0, 400.0)
        assert opened.attrs["at_run_start"] and closed.attrs["at_run_end"]

    def test_fully_covered_emits_nothing(self):
        coverage = IntervalSet.from_pairs([(0.0, 50.0)], 0.0, 50.0)
        assert gap_timeline_events_from_intervals(coverage, "x", emit=False) == []

    def test_times_are_plain_floats(self):
        coverage = IntervalSet.from_pairs([(10.0, 20.0)], 0.0, 30.0)
        events = gap_timeline_events_from_intervals(coverage, "x", emit=False)
        assert all(type(event.t_s) is float for event in events)
        assert all(type(event.attrs["gap_s"]) is float for event in events)

    def test_emit_records_on_global_timeline(self):
        obs_timeline.reset()
        try:
            coverage = IntervalSet.from_pairs([(0.0, 10.0), (20.0, 30.0)], 0.0, 30.0)
            gap_timeline_events_from_intervals(coverage, site="taipei")
            recorded = obs_timeline.events(kind=obs_timeline.GAP_CLOSE)
            assert [event.t_s for event in recorded] == [20.0]
        finally:
            obs_timeline.reset()

    def test_emit_false_records_nothing(self):
        obs_timeline.reset()
        try:
            coverage = IntervalSet.from_pairs([(5.0, 10.0)], 0.0, 30.0)
            gap_timeline_events_from_intervals(coverage, site="taipei", emit=False)
            assert obs_timeline.events() == []
        finally:
            obs_timeline.reset()
