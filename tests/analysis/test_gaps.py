"""Tests for gap-distribution analytics."""

import numpy as np
import pytest

from repro.analysis.gaps import gap_timeline_events
from repro.obs import timeline as obs_timeline
from repro.sim.coverage import gap_lengths_s
from repro.sim.events import intervals_from_mask
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
        covered = np.flatnonzero(mask)
        coverage = IntervalSet(
            covered * 60.0, (covered + 1) * 60.0, 0.0, mask.size * 60.0
        )
        np.testing.assert_array_equal(
            coverage.gap_lengths_s(), gap_lengths_s(mask, 60.0)
        )

    def test_intervals_keep_exact_gap_lengths(self):
        coverage = IntervalSet([12.5, 47.25], [40.0, 90.0], 0.0, 100.0)
        np.testing.assert_allclose(coverage.gap_lengths_s(), [12.5, 7.25, 10.0])


def _sampled_coverage(mask, step_s=60.0, start_s=0.0):
    """The IntervalSet whose edges sit exactly on ``mask``'s samples."""
    covered = np.flatnonzero(mask)
    return IntervalSet(
        start_s + covered * step_s,
        start_s + (covered + 1) * step_s,
        start_s,
        start_s + mask.size * step_s,
    )


def _events(bits, step_s=60.0, start_s=0.0):
    mask = np.array([bit == "1" for bit in bits])
    return gap_timeline_events(
        _sampled_coverage(mask, step_s, start_s), site="taipei", emit=False
    )


def _fields(events):
    return [(event.kind, event.t_s, event.subject, event.attrs) for event in events]


class TestGapTimelineEvents:
    """Hand-computed timelines: every edge case gets explicit flags."""

    def test_interior_gap(self):
        # Covered, 2 uncovered steps, covered: one gap [60, 180).
        events = _events("1001")
        assert [event.kind for event in events] == ["gap.open", "gap.close"]
        open_event, close_event = events
        assert open_event.t_s == 60.0
        assert close_event.t_s == 180.0
        assert open_event.attrs["gap_s"] == pytest.approx(120.0)
        assert "at_run_start" not in open_event.attrs
        assert "at_run_end" not in close_event.attrs

    def test_run_start_gap_flagged(self):
        events = _events("0011")
        assert events[0].t_s == 0.0
        assert events[0].attrs["at_run_start"] is True
        assert "at_run_end" not in events[1].attrs

    def test_run_end_gap_flagged(self):
        events = _events("110")
        assert events[1].t_s == pytest.approx(180.0)
        assert events[1].attrs["at_run_end"] is True
        assert "at_run_start" not in events[0].attrs

    def test_never_covered_carries_both_flags(self):
        """Zero-length contact: the site never sees a satellite at all."""
        events = _events("0000", step_s=30.0)
        assert len(events) == 2
        assert events[0].attrs["at_run_start"] is True
        assert events[1].attrs["at_run_end"] is True
        assert events[0].attrs["gap_s"] == pytest.approx(120.0)

    def test_fully_covered_emits_nothing(self):
        assert _events("11111") == []

    def test_single_step_contact_splits_gap(self):
        # One covered sample in the middle: two gaps around it.
        events = _events("010")
        assert [event.kind for event in events] == [
            "gap.open", "gap.close", "gap.open", "gap.close",
        ]
        assert events[1].t_s == 60.0  # First gap closes as the contact rises.
        assert events[2].t_s == 120.0  # Second opens as it sets.

    def test_start_offset_shifts_times(self):
        events = _events("01", start_s=1000.0)
        assert events[0].t_s == 1000.0
        assert events[0].attrs["at_run_start"] is True

    @pytest.mark.parametrize(
        "bits",
        ["0110011100", "1001100011", "0000000000", "1111111111", "1010101010",
         "0100000000", "0000000010", "1"],
        ids=["edge-gaps", "edge-contacts", "never-covered", "always-covered",
             "alternating", "early-contact", "late-contact", "one-sample"],
    )
    def test_gaps_are_the_masks_uncovered_runs(self, bits):
        """On sample edges the events are the mask's uncovered runs, each
        as long as ``gap_lengths_s`` says, flagged where it meets the
        horizon."""
        mask = np.array([bit == "1" for bit in bits])
        horizon_s = mask.size * 60.0
        expected = []
        for (start_s, stop_s), gap_s in zip(
            intervals_from_mask(~mask, 60.0), gap_lengths_s(mask, 60.0)
        ):
            open_attrs = {"gap_s": gap_s}
            if start_s == 0.0:
                open_attrs["at_run_start"] = True
            close_attrs = {"gap_s": gap_s}
            if stop_s == horizon_s:
                close_attrs["at_run_end"] = True
            expected.append(("gap.open", start_s, "taipei", open_attrs))
            expected.append(("gap.close", stop_s, "taipei", close_attrs))
        assert _fields(_events(bits)) == expected

    def test_exact_edges_and_boundary_flags(self):
        coverage = IntervalSet([12.5], [40.0], 0.0, 100.0)
        events = gap_timeline_events(coverage, "taipei", emit=False)
        assert [(event.kind, event.t_s) for event in events] == [
            ("gap.open", 0.0), ("gap.close", 12.5),
            ("gap.open", 40.0), ("gap.close", 100.0),
        ]
        assert events[0].attrs == {"gap_s": 12.5, "at_run_start": True}
        assert events[1].attrs == {"gap_s": 12.5}
        assert events[3].attrs == {"gap_s": 60.0, "at_run_end": True}

    def test_never_covered_is_one_flagged_gap(self):
        coverage = IntervalSet([], [], 100.0, 400.0)
        opened, closed = gap_timeline_events(coverage, "taipei", emit=False)
        assert (opened.t_s, closed.t_s) == (100.0, 400.0)
        assert opened.attrs["at_run_start"] and closed.attrs["at_run_end"]

    def test_times_are_plain_floats(self):
        coverage = IntervalSet([10.0], [20.0], 0.0, 30.0)
        events = gap_timeline_events(coverage, "x", emit=False)
        assert all(type(event.t_s) is float for event in events)
        assert all(type(event.attrs["gap_s"]) is float for event in events)

    def test_emit_records_on_global_timeline(self):
        obs_timeline.reset()
        try:
            coverage = IntervalSet([0.0, 20.0], [10.0, 30.0], 0.0, 30.0)
            gap_timeline_events(coverage, site="taipei")
            recorded = obs_timeline.events(kind=obs_timeline.GAP_CLOSE)
            assert [event.t_s for event in recorded] == [20.0]
            assert recorded[0].subject == "taipei"
        finally:
            obs_timeline.reset()

    def test_emit_false_records_nothing(self):
        obs_timeline.reset()
        try:
            coverage = IntervalSet([5.0], [10.0], 0.0, 30.0)
            gap_timeline_events(coverage, site="taipei", emit=False)
            assert obs_timeline.events() == []
        finally:
            obs_timeline.reset()
