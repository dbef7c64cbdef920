"""Tests for gap-distribution analytics."""

import numpy as np
import pytest

from repro.analysis.gaps import (
    GapDistribution,
    gap_timeline_events,
    pooled_gap_distribution,
    survival_curve,
)
from repro.obs import timeline as obs_timeline
from repro.sim.intervals import IntervalSet


class TestGapDistribution:
    def test_empty(self):
        dist = GapDistribution.from_gaps(np.array([]))
        assert dist.count == 0
        assert dist.max_s == 0.0

    def test_single_gap(self):
        dist = GapDistribution.from_gaps(np.array([120.0]))
        assert dist.count == 1
        assert dist.mean_s == 120.0
        assert dist.median_s == 120.0
        assert dist.max_s == 120.0

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(0)
        dist = GapDistribution.from_gaps(rng.exponential(300.0, size=1000))
        assert dist.median_s <= dist.p90_s <= dist.p99_s <= dist.max_s

    def test_from_mask(self):
        mask = np.array([True, False, False, True, False, True])
        dist = GapDistribution.from_mask(mask, 60.0)
        assert dist.count == 2
        assert dist.total_s == 180.0

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
    def test_from_intervals_matches_mask_on_sample_edges(self, bits):
        """Coverage whose edges sit on samples yields the grid's gaps."""
        mask = np.array([bit == "1" for bit in bits])
        coverage = IntervalSet.from_pairs(
            [(i * 60.0, (i + 1) * 60.0) for i in np.flatnonzero(mask)],
            0.0, mask.size * 60.0,
        )
        assert GapDistribution.from_intervals(coverage) == GapDistribution.from_mask(
            mask, 60.0
        )

    def test_from_intervals_keeps_exact_gap_lengths(self):
        coverage = IntervalSet.from_pairs([(12.5, 40.0), (47.25, 90.0)], 0.0, 100.0)
        dist = GapDistribution.from_intervals(coverage)
        assert dist.count == 3
        assert dist.total_s == pytest.approx(12.5 + 7.25 + 10.0)
        assert dist.max_s == 12.5

    def test_pooled(self):
        masks = [
            np.array([True, False, True]),
            np.array([False, False, True]),
        ]
        dist = pooled_gap_distribution(masks, 60.0)
        assert dist.count == 2
        assert dist.total_s == 180.0

    def test_pooled_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            pooled_gap_distribution([], 60.0)


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


class TestSurvivalCurve:
    def test_empty_gaps(self):
        assert survival_curve([], [10.0, 20.0]) == [0.0, 0.0]

    def test_known_values(self):
        gaps = [10.0, 20.0, 30.0, 40.0]
        curve = survival_curve(gaps, [0.0, 25.0, 50.0])
        assert curve == [1.0, 0.5, 0.0]

    def test_nonincreasing(self):
        rng = np.random.default_rng(1)
        gaps = rng.exponential(100.0, size=500)
        curve = survival_curve(gaps, np.linspace(0, 1000, 20))
        assert all(b <= a for a, b in zip(curve, curve[1:]))
