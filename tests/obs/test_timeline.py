"""Tests for the ring-buffered simulation event timeline."""

import json
import threading

import pytest

from repro.obs import timeline as obs_timeline
from repro.obs.timeline import Timeline, TimelineEvent


class TestEmit:
    def test_emit_and_query(self):
        timeline = Timeline(capacity=16)
        event = timeline.emit(
            obs_timeline.HANDOVER, 120.0, "terminal-1", from_sat="a", to_sat="b"
        )
        assert event.kind == "handover"
        assert event.attrs == {"from_sat": "a", "to_sat": "b"}
        assert timeline.events() == [event]

    def test_unknown_kind_rejected(self):
        timeline = Timeline(capacity=4)
        with pytest.raises(ValueError, match="unknown timeline event kind"):
            timeline.emit("contact.begun", 0.0, "sat-1")

    def test_negative_duration_rejected(self):
        timeline = Timeline(capacity=4)
        with pytest.raises(ValueError, match="non-negative"):
            timeline.emit(obs_timeline.ALLOC_GRANT, 0.0, "sat-1", duration_s=-1.0)

    def test_windowed_event_stop(self):
        timeline = Timeline(capacity=4)
        event = timeline.emit(
            obs_timeline.ALLOC_GRANT, 100.0, "sat-1", duration_s=60.0
        )
        assert event.stop_s == pytest.approx(160.0)

    def test_emit_event_validates(self):
        timeline = Timeline(capacity=4)
        with pytest.raises(ValueError, match="unknown"):
            timeline.emit_event(
                TimelineEvent(t_s=0.0, kind="nope", subject="x")
            )


class TestRing:
    def test_overwrites_oldest_and_counts_drops(self):
        timeline = Timeline(capacity=3)
        for index in range(5):
            timeline.emit(obs_timeline.HANDOVER, float(index), f"t-{index}")
        assert len(timeline) == 3
        assert timeline.dropped == 2
        assert timeline.total_emitted == 5
        # The survivors are the three newest, oldest first.
        assert [event.t_s for event in timeline.events()] == [2.0, 3.0, 4.0]

    def test_counts_by_kind_survive_cap(self):
        timeline = Timeline(capacity=2)
        for index in range(4):
            timeline.emit(obs_timeline.HANDOVER, float(index), "t")
        timeline.emit(obs_timeline.GAP_OPEN, 9.0, "site")
        assert timeline.snapshot()["counts_by_kind"] == {
            "gap.open": 1,
            "handover": 4,
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Timeline(capacity=0)

    def test_reset(self):
        timeline = Timeline(capacity=2)
        for index in range(4):
            timeline.emit(obs_timeline.HANDOVER, float(index), "t")
        timeline.reset()
        assert len(timeline) == 0
        assert timeline.dropped == 0
        assert timeline.events() == []
        assert timeline.snapshot()["counts_by_kind"] == {}


class TestQueries:
    def _populated(self) -> Timeline:
        timeline = Timeline(capacity=16)
        timeline.emit(obs_timeline.CONTACT_BEGIN, 0.0, "sat-1", party="tw")
        timeline.emit(obs_timeline.CONTACT_BEGIN, 10.0, "sat-2", party="jp")
        timeline.emit(obs_timeline.CONTACT_END, 20.0, "sat-1", party="tw")
        return timeline

    def test_filter_by_kind(self):
        events = self._populated().events(kind=obs_timeline.CONTACT_BEGIN)
        assert [event.subject for event in events] == ["sat-1", "sat-2"]

    def test_filter_by_subject(self):
        events = self._populated().events(subject="sat-1")
        assert len(events) == 2

    def test_filter_by_party(self):
        events = self._populated().events(party="jp")
        assert [event.subject for event in events] == ["sat-2"]

    def test_snapshot_is_json_ready(self):
        snapshot = self._populated().snapshot()
        json.dumps(snapshot)
        assert snapshot["total_emitted"] == 3
        assert snapshot["dropped"] == 0
        assert snapshot["counts_by_kind"]["contact.begin"] == 2
        assert snapshot["events"][0]["kind"] == "contact.begin"

    def test_to_dict_omits_empty_fields(self):
        record = TimelineEvent(t_s=1.0, kind="handover", subject="t").to_dict()
        assert record == {"t_s": 1.0, "kind": "handover", "subject": "t"}


class TestCapacity:
    def test_default_timeline_holds_the_default_capacity(self):
        assert obs_timeline.DEFAULT_CAPACITY == 65536
        assert obs_timeline.TIMELINE.capacity == obs_timeline.DEFAULT_CAPACITY
        assert Timeline().capacity == obs_timeline.DEFAULT_CAPACITY

    def test_reset_keeps_the_capacity(self):
        timeline = Timeline(capacity=3)
        for index in range(5):
            timeline.emit(obs_timeline.HANDOVER, float(index), "t")
        timeline.reset()
        assert timeline.capacity == 3
        for index in range(3):
            timeline.emit(obs_timeline.HANDOVER, float(index), "t")
        assert len(timeline) == 3
        assert timeline.dropped == 0

    def test_ring_wraps_more_than_once(self):
        timeline = Timeline(capacity=3)
        for index in range(10):
            timeline.emit(obs_timeline.HANDOVER, float(index), "t")
        assert [event.t_s for event in timeline.events()] == [7.0, 8.0, 9.0]
        assert timeline.dropped == 7
        assert timeline.total_emitted == 10

    def test_snapshot_of_a_wrapped_ring(self):
        timeline = Timeline(capacity=2)
        for index in range(5):
            timeline.emit(obs_timeline.GAP_OPEN, float(index), "site")
        snapshot = timeline.snapshot()
        assert snapshot["capacity"] == 2
        assert snapshot["dropped"] == 3
        assert snapshot["total_emitted"] == 5
        assert [event["t_s"] for event in snapshot["events"]] == [3.0, 4.0]

    def test_filters_see_only_surviving_events(self):
        timeline = Timeline(capacity=2)
        timeline.emit(obs_timeline.GAP_OPEN, 0.0, "site")
        timeline.emit(obs_timeline.HANDOVER, 1.0, "t")
        timeline.emit(obs_timeline.HANDOVER, 2.0, "t")
        assert timeline.events(kind=obs_timeline.GAP_OPEN) == []
        assert timeline.snapshot()["counts_by_kind"]["gap.open"] == 1


class TestGlobalHelpers:
    def test_module_emit_and_extend(self):
        obs_timeline.reset()
        try:
            obs_timeline.emit(obs_timeline.PARTY_JOIN, 0.0, "tw", party="tw")
            added = obs_timeline.extend(
                [
                    TimelineEvent(t_s=5.0, kind="gap.open", subject="taipei"),
                    TimelineEvent(t_s=9.0, kind="gap.close", subject="taipei"),
                ]
            )
            assert added == 2
            assert len(obs_timeline.events()) == 3
            assert obs_timeline.snapshot()["counts_by_kind"]["party.join"] == 1
        finally:
            obs_timeline.reset()

    def test_thread_safety_no_lost_counts(self):
        timeline = Timeline(capacity=64)

        def hammer():
            for index in range(200):
                timeline.emit(obs_timeline.HANDOVER, float(index), "t")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert timeline.total_emitted == 800
        assert timeline.dropped == 800 - 64
        assert len(timeline) == 64
