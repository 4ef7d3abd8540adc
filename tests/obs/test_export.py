"""Tests for the Chrome trace-event exporter and validator."""

import json

import pytest

from repro.des import Environment
from repro.obs import SpanRecorder, Track
from repro.obs.export import (
    ascii_timeline,
    to_trace_events,
    validate_trace,
    validate_trace_file,
    write_trace,
)

TRACK = Track(1, 0)


@pytest.fixture
def recorder():
    rec = SpanRecorder(Environment())
    rec.label_track(TRACK, "proc", "worker")
    return rec


def _toy_trace(rec):
    parent = rec.add("request", "pfs", TRACK, 0.0, 10.0, overlapping=True)
    child = rec.add("work", "test", TRACK, 1.0, 4.0, parent=parent)
    late = rec.add("merge", "test", TRACK, 6.0, 9.0, parent=parent)
    rec.flow("edge", "test", child, 4.0, late, 6.0)
    return parent, child, late


class TestToTraceEvents:
    def test_metadata_events_lead(self, recorder):
        _toy_trace(recorder)
        events = to_trace_events(recorder)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        # Metadata comes first so viewers name lanes before slices land.
        assert events[: len(meta)] == meta

    def test_complete_spans_become_x_slices(self, recorder):
        _toy_trace(recorder)
        events = to_trace_events(recorder)
        slices = [e for e in events if e["ph"] == "X"]
        work = next(e for e in slices if e["name"] == "work")
        # Seconds -> microseconds.
        assert work["ts"] == pytest.approx(1.0e6)
        assert work["dur"] == pytest.approx(3.0e6)
        assert (work["pid"], work["tid"]) == (TRACK.pid, TRACK.tid)

    def test_overlapping_spans_become_async_pairs(self, recorder):
        _toy_trace(recorder)
        events = to_trace_events(recorder)
        asyncs = [e for e in events if e["ph"] in "be"]
        assert {e["ph"] for e in asyncs} == {"b", "e"}
        assert all(e["name"] == "request" for e in asyncs)

    def test_flows_become_s_f_pairs(self, recorder):
        _toy_trace(recorder)
        events = to_trace_events(recorder)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["bp"] == "e"

    def test_dangling_flow_skipped(self, recorder):
        sid = recorder.add("src", "test", TRACK, 0.0, 1.0)
        recorder.flow_begin("edge", "test", sid, ts=1.0)
        events = to_trace_events(recorder)
        assert not [e for e in events if e["ph"] in "sf"]

    def test_open_spans_closed_by_export(self, recorder):
        recorder.begin("tail", "test", TRACK, start=2.0)
        to_trace_events(recorder)
        assert recorder.open_spans == 0


class TestValidate:
    def test_clean_trace_validates(self, recorder):
        _toy_trace(recorder)
        payload = {"traceEvents": to_trace_events(recorder)}
        assert validate_trace(payload) == []

    def test_unbalanced_async_flagged(self):
        payload = {
            "traceEvents": [
                {"ph": "b", "name": "x", "cat": "c", "id": 1, "pid": 1,
                 "tid": 0, "ts": 0.0},
            ]
        }
        assert any("without end" in p for p in validate_trace(payload))

    def test_unpaired_flow_flagged(self):
        payload = {
            "traceEvents": [
                {"ph": "s", "name": "x", "cat": "c", "id": 1, "pid": 1,
                 "tid": 0, "ts": 0.0},
            ]
        }
        assert any("flow" in p for p in validate_trace(payload))

    def test_negative_duration_flagged(self):
        payload = {
            "traceEvents": [
                {"ph": "X", "name": "x", "cat": "c", "pid": 1, "tid": 0,
                 "ts": 0.0, "dur": -1.0},
            ]
        }
        assert validate_trace(payload)


class TestWriteTrace:
    def test_round_trip(self, recorder, tmp_path):
        _toy_trace(recorder)
        out = tmp_path / "trace.json"
        count = write_trace(recorder, out)
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"
        assert validate_trace_file(out) == []

    def test_write_is_deterministic(self, tmp_path):
        def build():
            rec = SpanRecorder(Environment())
            rec.label_track(TRACK, "proc", "worker")
            _toy_trace(rec)
            return rec

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_trace(build(), a)
        write_trace(build(), b)
        assert a.read_bytes() == b.read_bytes()


class TestAsciiTimeline:
    def test_renders_tree_and_flows(self, recorder):
        _toy_trace(recorder)
        text = ascii_timeline(recorder)
        assert "request" in text
        assert "work" in text
        assert "edge" in text
        # Children are indented beneath their parent.
        request_line = next(
            line for line in text.splitlines() if "request" in line
        )
        work_line = next(line for line in text.splitlines() if "work" in line)
        assert len(work_line) - len(work_line.lstrip()) > len(
            request_line
        ) - len(request_line.lstrip())

    def test_empty_recorder(self, recorder):
        assert isinstance(ascii_timeline(recorder), str)
