"""Tests for the four SAIs components (Fig. 3)."""

import pytest

from repro.core import HintCapsuler, HintMessager, IMComposer, SrcParser
from repro.errors import CoreIdOutOfRangeError
from repro.net import Packet, decode_aff_core_id
from repro.pfs.request import StripRequest
from repro.units import KiB


def make_packet(options=b""):
    return Packet(
        size=64 * KiB,
        src_server=0,
        dst_client=0,
        request_id=1,
        strip_id=0,
        options=options,
        request_core=2,
    )


def make_request():
    return StripRequest(
        request_id=1,
        client=0,
        server=0,
        strip_id=0,
        offset=0,
        size=64 * KiB,
    )


class TestHintMessager:
    def test_attach_sets_hint(self):
        messager = HintMessager()
        request = make_request()
        assert messager.attach(request, core_index=5) is True
        assert request.hint_aff_core_id == 5
        assert messager.hints_attached == 1

    def test_unencodable_core_degrades_gracefully(self):
        """Cores beyond the 5-bit field travel unhinted (paper: SAIs can
        identify at most 32 cores)."""
        messager = HintMessager()
        request = make_request()
        assert messager.attach(request, core_index=32) is False
        assert request.hint_aff_core_id is None
        assert messager.hints_unencodable == 1
        assert messager.hints_attached == 0

    def test_boundary_core_31_still_encodable(self):
        messager = HintMessager()
        request = make_request()
        assert messager.attach(request, core_index=31) is True
        assert request.hint_aff_core_id == 31


class TestHintCapsuler:
    def test_stamps_packet_options(self):
        capsuler = HintCapsuler()
        packet = make_packet()
        capsuler.encapsulate(packet, 7)
        assert decode_aff_core_id(packet.options) == 7
        assert capsuler.packets_stamped == 1

    def test_no_hint_leaves_packet_untouched(self):
        capsuler = HintCapsuler()
        packet = make_packet()
        capsuler.encapsulate(packet, None)
        assert packet.options == b""
        assert capsuler.packets_stamped == 0


class TestSrcParser:
    def test_parses_stamped_packet(self):
        capsuler, parser = HintCapsuler(), SrcParser()
        packet = make_packet()
        capsuler.encapsulate(packet, 3)
        assert parser.parse(packet) == 3
        assert parser.hints_found == 1

    def test_plain_packet_yields_none(self):
        parser = SrcParser()
        assert parser.parse(make_packet()) is None
        assert parser.packets_parsed == 1
        assert parser.hints_found == 0

    def test_out_of_range_hint_counted_not_steered(self):
        # A corrupted option can decode to a well-formed hint naming a
        # core the machine does not have; the driver must treat it as
        # garbage, not raise and not steer.
        capsuler, parser = HintCapsuler(), SrcParser(n_cores=8)
        packet = make_packet()
        capsuler.encapsulate(packet, 20)  # encodable, but host has 8 cores
        assert parser.parse(packet) is None
        assert parser.hints_out_of_range == 1
        assert parser.parse_errors == 1
        assert parser.hints_found == 0

    def test_in_range_hint_unaffected_by_core_count(self):
        capsuler, parser = HintCapsuler(), SrcParser(n_cores=8)
        packet = make_packet()
        capsuler.encapsulate(packet, 3)
        assert parser.parse(packet) == 3
        assert parser.hints_out_of_range == 0


class TestIMComposer:
    def test_composes_context_with_aff(self):
        composer = IMComposer()
        packet = make_packet()
        ctx = composer.compose(packet, 4)
        assert ctx.aff_core_id == 4
        assert ctx.packet is packet
        assert composer.messages_composed == 1


class TestEndToEndHintPath:
    def test_request_to_interrupt_roundtrip(self):
        """HintMessager -> HintCapsuler -> SrcParser -> IMComposer."""
        messager, capsuler = HintMessager(), HintCapsuler()
        parser, composer = SrcParser(), IMComposer()

        request = make_request()
        messager.attach(request, core_index=6)

        packet = make_packet()
        capsuler.encapsulate(packet, request.hint_aff_core_id)

        aff = parser.parse(packet)
        ctx = composer.compose(packet, aff)
        assert ctx.aff_core_id == 6
