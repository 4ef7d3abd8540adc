"""Tests for packets, links, the switch and the TCP stream model."""

from types import SimpleNamespace

import pytest

from repro.des import Environment
from repro.errors import ProtocolError
from repro.net import (
    Link,
    Packet,
    Switch,
    TcpStream,
    segment_sizes,
    segments_for_strip,
)
from repro.net.fastpath import WireFastPath
from repro.units import KiB, MiB


def make_packet(size=64 * KiB, server=0, strip=0, **kw):
    return Packet(
        size=size,
        src_server=server,
        dst_client=0,
        request_id=1,
        strip_id=strip,
        **kw,
    )


@pytest.fixture
def env():
    return Environment()


class TestPacket:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ProtocolError):
            make_packet(size=0)

    def test_rejects_bad_segmentation(self):
        with pytest.raises(ProtocolError):
            make_packet(segment=2, n_segments=2)

    def test_is_last_segment(self):
        assert make_packet(segment=1, n_segments=2).is_last_segment
        assert not make_packet(segment=0, n_segments=2).is_last_segment

    def test_default_no_options(self):
        assert make_packet().options == b""


class TestLink:
    def test_serialization_time(self, env):
        link = Link(env, bandwidth=1 * MiB)
        assert link.serialization_time(512 * KiB) == pytest.approx(0.5)

    def test_framing_overhead_inflates_wire_time(self, env):
        plain = Link(env, bandwidth=1 * MiB)
        framed = Link(env, bandwidth=1 * MiB, framing_overhead=0.06)
        assert framed.serialization_time(MiB) == pytest.approx(
            1.06 * plain.serialization_time(MiB)
        )

    def test_counters(self, env):
        link = Link(env, bandwidth=1 * MiB)
        env.process(link.send(make_packet(size=64 * KiB)))
        env.run()
        assert link.bytes_sent == 64 * KiB
        assert link.packets_sent == 1

    def test_send_returns_after_the_attempt_that_gets_through(self, env):
        class DropFirstAttempt:
            def should_drop(self, packet, attempt):
                return attempt == 0

            def retransmit_delay(self, attempt):
                return 0.5

        link = Link(env, bandwidth=1 * MiB, faults=DropFirstAttempt())
        departed = []

        def sender():
            yield from link.send(make_packet(size=1 * MiB))
            departed.append(env.now)

        env.process(sender())
        env.run()
        # Lost attempt (1 s on the wire) + back-off (0.5 s) + resend (1 s).
        assert departed == [pytest.approx(2.5)]
        assert link.packets_sent == 2
        assert link.retransmits == 1

    def test_invalid_bandwidth(self, env):
        with pytest.raises(ValueError):
            Link(env, bandwidth=0)


class RecordingNic:
    """Stand-in client NIC: no wire time, records each delivery instant."""

    def __init__(self, env):
        self.env = env
        self.arrivals = []

    def admit(self, nbytes, arrival):
        return arrival

    def complete_rx(self, packet):
        self.arrivals.append(self.env.now)


class TestSwitch:
    def test_forward_charges_backplane(self, env):
        switch = Switch(env, backplane_bandwidth=1 * MiB)
        assert switch.relay(1 * MiB) == pytest.approx(1.0)
        # Relayed at the same instant, the second packet queues behind
        # the first.
        assert switch.relay(1 * MiB) == pytest.approx(2.0)
        assert switch.bytes_switched == 2 * MiB
        assert switch.packets_switched == 2

    def test_latency(self, env):
        switch = Switch(env, backplane_bandwidth=1 * MiB, latency=0.5)
        nic = RecordingNic(env)
        wire = WireFastPath(env, switch, [SimpleNamespace(nic=nic)])
        uplink = Link(env, bandwidth=float("inf"))
        env.process(wire.transmit_to_client(uplink, make_packet(size=1 * MiB)))
        env.run()
        assert nic.arrivals == [pytest.approx(1.5)]


class TestSegmentSizes:
    def test_exact_division(self):
        assert segment_sizes(8, 4) == [4, 4]

    def test_remainder(self):
        assert segment_sizes(10, 4) == [4, 4, 2]

    def test_smaller_than_mss(self):
        assert segment_sizes(3, 1500) == [3]

    def test_invalid_inputs(self):
        with pytest.raises(ProtocolError):
            segment_sizes(0, 4)
        with pytest.raises(ProtocolError):
            segment_sizes(4, 0)


class TestTcpStream:
    def test_single_segment_strip_completes_immediately(self):
        stream = TcpStream(server=0, client=0)
        packet = make_packet()
        assert stream.deliver(packet) is True
        assert stream.take_completed_size(packet.strip_id) == packet.size

    def test_multi_segment_strip(self):
        stream = TcpStream(server=0, client=0)
        base = make_packet(size=3000, strip=5)
        segments = segments_for_strip(base, mss=1500)
        assert len(segments) == 2
        assert stream.deliver(segments[0]) is False
        assert stream.deliver(segments[1]) is True

    def test_no_mss_means_single_train(self):
        base = make_packet(size=64 * KiB)
        segments = segments_for_strip(base, mss=None)
        assert len(segments) == 1
        assert segments[0].n_segments == 1
        # An unsplit strip travels as the packet itself, not a copy.
        assert segments[0] is base
        assert segments_for_strip(base, mss=64 * KiB)[0] is base

    def test_segments_keep_every_other_field(self):
        base = make_packet(
            size=4000, strip=3, options=b"\x88\x04\x00\x02", request_core=2
        )
        segments = segments_for_strip(base, mss=1500)
        assert [seg.size for seg in segments] == [1500, 1500, 1000]
        assert [seg.segment for seg in segments] == [0, 1, 2]
        for seg in segments:
            assert seg.n_segments == 3
            assert seg.as_segment(base.size, 0, 1) == base

    def test_as_segment_validates(self):
        with pytest.raises(ProtocolError):
            make_packet().as_segment(1500, 2, 2)
        with pytest.raises(ProtocolError):
            make_packet().as_segment(0, 0, 1)

    def test_duplicate_segment_rejected(self):
        stream = TcpStream(server=0, client=0)
        packet = make_packet(segment=0, n_segments=2)
        stream.deliver(packet)
        with pytest.raises(ProtocolError):
            stream.deliver(packet)

    def test_wrong_stream_rejected(self):
        stream = TcpStream(server=1, client=0)
        with pytest.raises(ProtocolError):
            stream.deliver(make_packet(server=0))

    def test_in_flight_tracking(self):
        stream = TcpStream(server=0, client=0)
        base = make_packet(size=3000, strip=7)
        segments = segments_for_strip(base, mss=1500)
        stream.deliver(segments[0])
        assert list(stream.in_flight_strips()) == [7]
