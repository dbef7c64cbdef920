"""Tests for the Chrome trace-event exporter."""

import json

import pytest

from repro.obs import timeline as obs_timeline
from repro.obs.export import (
    SIM_PID,
    SPAN_PID,
    chrome_trace,
    span_trace_events,
    timeline_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.timeline import TimelineEvent
from repro.obs.trace import SpanRecord


def _span(name="phase", start=0.0, dur=1.0, depth=0, parent=None, mem=None):
    return SpanRecord(
        name=name, start_s=start, duration_s=dur, depth=depth, parent=parent,
        mem_peak_kb=mem,
    )


class TestSpanEvents:
    def test_complete_events_in_microseconds(self):
        events = span_trace_events([_span(start=2.0, dur=0.5)])
        slices = [event for event in events if event["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == pytest.approx(2e6)
        assert slices[0]["dur"] == pytest.approx(5e5)
        assert slices[0]["pid"] == SPAN_PID

    def test_metadata_names_the_process(self):
        events = span_trace_events([])
        names = [event["args"]["name"] for event in events if event["ph"] == "M"]
        assert any("wall clock" in name for name in names)

    def test_memory_counter_emitted_when_sampled(self):
        events = span_trace_events([_span(mem=128.0)])
        counters = [event for event in events if event["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["args"]["kb"] == 128.0

    def test_no_counter_without_memory(self):
        events = span_trace_events([_span()])
        assert not [event for event in events if event["ph"] == "C"]


class TestTimelineEvents:
    def test_contact_begin_with_hint_becomes_slice(self):
        events = timeline_trace_events(
            [
                TimelineEvent(
                    t_s=100.0, kind="contact.begin", subject="sat-1",
                    attrs={"duration_hint_s": 300.0},
                ),
                TimelineEvent(t_s=400.0, kind="contact.end", subject="sat-1"),
            ]
        )
        slices = [event for event in events if event.get("ph") == "X"]
        assert len(slices) == 1
        assert slices[0]["name"] == "contact"
        assert slices[0]["dur"] == pytest.approx(3e8)
        # The end marker is folded into the slice, not emitted separately.
        assert not [e for e in events if e.get("name") == "contact.end"]

    def test_contact_begin_without_hint_degrades_to_instant(self):
        events = timeline_trace_events(
            [TimelineEvent(t_s=0.0, kind="contact.begin", subject="sat-1")]
        )
        instants = [event for event in events if event.get("ph") == "i"]
        assert len(instants) == 1

    def test_windowed_kind_becomes_slice(self):
        events = timeline_trace_events(
            [
                TimelineEvent(
                    t_s=60.0, kind="allocation.grant", subject="sat-1",
                    duration_s=120.0,
                )
            ]
        )
        slices = [event for event in events if event.get("ph") == "X"]
        assert slices[0]["dur"] == pytest.approx(1.2e8)

    def test_one_track_per_subject(self):
        events = timeline_trace_events(
            [
                TimelineEvent(t_s=0.0, kind="handover", subject="sat-1"),
                TimelineEvent(t_s=1.0, kind="handover", subject="sat-2"),
                TimelineEvent(t_s=2.0, kind="handover", subject="sat-1"),
            ]
        )
        tids = {
            event["tid"]
            for event in events
            if event["ph"] != "M" and event["pid"] == SIM_PID
        }
        assert len(tids) == 2
        labels = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and "tid" in event
        }
        assert labels == {"sat-1", "sat-2"}

    def test_partyless_subjectless_event_lands_on_run_track(self):
        events = timeline_trace_events(
            [TimelineEvent(t_s=0.0, kind="sharing.trade", subject="")]
        )
        labels = [
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and "tid" in event
        ]
        assert labels == ["(run)"]


class TestDocument:
    def test_round_trip_and_validate(self, tmp_path):
        obs_timeline.reset()
        try:
            obs_timeline.emit(
                obs_timeline.CONTACT_BEGIN, 0.0, "sat-1",
                duration_hint_s=600.0,
            )
            path = tmp_path / "trace.json"
            written = write_chrome_trace(str(path))
            loaded = json.loads(path.read_text())
            assert loaded == written
            validate_chrome_trace(loaded)
            assert loaded["displayTimeUnit"] == "ms"
        finally:
            obs_timeline.reset()

    def test_explicit_sources(self):
        document = chrome_trace(
            spans=[_span()],
            timeline_events=[
                TimelineEvent(t_s=0.0, kind="gap.open", subject="taipei")
            ],
        )
        validate_chrome_trace(document)
        pids = {
            event["pid"]
            for event in document["traceEvents"]
            if event["ph"] != "M"
        }
        assert pids == {SPAN_PID, SIM_PID}

    def test_validate_rejects_non_trace(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})

    def test_validate_rejects_missing_ts(self):
        document = {
            "traceEvents": [{"ph": "i", "pid": 1, "name": "x", "s": "t"}]
        }
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(document)

    def test_validate_rejects_complete_without_dur(self):
        document = {
            "traceEvents": [{"ph": "X", "pid": 1, "name": "x", "ts": 0.0}]
        }
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(document)
