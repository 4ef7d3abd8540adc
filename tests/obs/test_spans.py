"""Unit tests for the span recorder (repro.obs.spans)."""

import pytest

from repro.des import Environment
from repro.errors import SimulationError
from repro.obs import Span, SpanRecorder, Track
from repro.obs.spans import (
    APIC_TID,
    BUS_TID,
    FABRIC_PID,
    NIC_TID,
    PFS_TID,
    client_pid,
    server_pid,
)

TRACK = Track(1, 0)


@pytest.fixture
def recorder():
    rec = SpanRecorder(Environment())
    rec.label_track(TRACK, "proc", "thread")
    return rec


class TestSpanLifecycle:
    def test_begin_end(self, recorder):
        sid = recorder.begin("work", "test", TRACK)
        assert recorder.open_spans == 1
        recorder.end(sid, end=1.5)
        assert recorder.open_spans == 0
        span = recorder.spans[0]
        assert (span.name, span.start, span.end) == ("work", 0.0, 1.5)

    def test_ids_are_dense_and_monotone(self, recorder):
        sids = [
            recorder.add("s", "test", TRACK, 0.0, 1.0) for _ in range(5)
        ]
        assert sids == [1, 2, 3, 4, 5]

    def test_end_unopened_raises(self, recorder):
        with pytest.raises(SimulationError):
            recorder.end(99)

    def test_end_twice_raises(self, recorder):
        sid = recorder.begin("work", "test", TRACK)
        recorder.end(sid)
        with pytest.raises(SimulationError):
            recorder.end(sid)

    def test_end_if_open_is_idempotent(self, recorder):
        sid = recorder.begin("work", "test", TRACK)
        assert recorder.end_if_open(sid, end=2.0) is True
        assert recorder.end_if_open(sid, end=3.0) is False
        assert recorder.spans[0].end == 2.0

    def test_end_merges_args(self, recorder):
        sid = recorder.begin("work", "test", TRACK, args={"a": 1})
        recorder.end(sid, args={"b": 2})
        assert recorder.spans[0].args == {"a": 1, "b": 2}

    def test_annotate_merges_args_open_or_closed(self, recorder):
        sid = recorder.begin("work", "test", TRACK, args={"a": 1})
        recorder.annotate(sid, {"b": 2})
        assert recorder.open_spans == 1
        recorder.end(sid)
        recorder.annotate(sid, {"a": 3})
        assert recorder.spans[0].args == {"a": 3, "b": 2}

    def test_instant_has_zero_duration(self, recorder):
        recorder.instant("mark", "test", TRACK, ts=4.0)
        span = recorder.spans[0]
        assert span.start == span.end == 4.0

    def test_close_open_spans_pins_to_max(self, recorder):
        early = recorder.begin("a", "test", TRACK, start=0.0)
        late = recorder.begin("b", "test", TRACK, start=9.0)
        assert recorder.close_open_spans(at=5.0) == 2
        assert recorder.spans[early - 1].end == 5.0
        # A span opened after the close point never ends before it starts.
        assert recorder.spans[late - 1].end == 9.0

    def test_label_track_first_wins(self, recorder):
        recorder.label_track(TRACK, "other", "name")
        assert recorder.track_labels[TRACK] == ("proc", "thread")


class TestFlows:
    def test_flow_begin_end(self, recorder):
        src = recorder.add("src", "test", TRACK, 0.0, 1.0)
        dst = recorder.add("dst", "test", TRACK, 2.0, 3.0)
        fid = recorder.flow_begin("edge", "test", src, ts=1.0)
        recorder.flow_end(fid, dst, ts=2.0)
        flow = recorder.flows[0]
        assert (flow.src_span, flow.dst_span) == (src, dst)
        assert (flow.src_ts, flow.dst_ts) == (1.0, 2.0)
        assert flow.src_track == flow.dst_track == TRACK

    def test_flow_end_unknown_raises(self, recorder):
        with pytest.raises(SimulationError):
            recorder.flow_end(42, 1)

    def test_complete_flow_helper(self, recorder):
        src = recorder.add("src", "test", TRACK, 0.0, 1.0)
        dst = recorder.add("dst", "test", TRACK, 2.0, 3.0)
        fid = recorder.flow("edge", "test", src, 1.0, dst, 2.0)
        assert recorder.flows[0].fid == fid
        assert recorder.flows[0].dst_span == dst


class TestStripCorrelation:
    def test_request_and_strip_lookup(self, recorder):
        req = recorder.begin("read", "pfs", TRACK)
        strip = recorder.begin("strip", "pfs", TRACK, parent=req)
        recorder.request_begin(0, 7, req)
        recorder.strip_begin(0, 13, strip)
        assert recorder.request_span(0, 7) == req
        assert recorder.strip_span(0, 13) == strip
        assert recorder.strip_span(0, 99) is None
        assert recorder.request_span(1, 7) is None

    def test_handled_round_trip(self, recorder):
        sid = recorder.add("softirq", "kernel", TRACK, 0.0, 1.0)
        recorder.note_handled(0, 13, sid, 1.0, 3)
        assert recorder.handled_span(0, 13) == (sid, 1.0, 3)
        assert recorder.handled_span(0, 14) is None


class TestTrackModel:
    def test_pid_spaces_are_disjoint(self):
        pids = {FABRIC_PID}
        pids |= {client_pid(c) for c in range(16)}
        pids |= {server_pid(s) for s in range(64)}
        assert len(pids) == 1 + 16 + 64

    def test_lane_tids_clear_of_core_tids(self):
        # Cores occupy tid 0..n-1; auxiliary lanes start far above any
        # plausible core count.
        assert min(PFS_TID, NIC_TID, APIC_TID, BUS_TID) >= 64

    def test_span_defaults(self):
        span = Span(1, None, "s", "c", TRACK, 0.0)
        assert span.end is None
        assert span.overlapping is False
