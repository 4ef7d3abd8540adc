"""A minimal TCP abstraction: ordered per-connection streams + segmentation.

PVFS transfers strips over one TCP connection per (client, server) pair.
For interrupt accounting, what matters is (a) strips from one server arrive
*in order*, and (b) a strip may be segmented into several MTU-sized trains,
each of which raises its own (coalesced) interrupt.  Congestion control is
not modeled: the experiments run on an uncongested dedicated switch where
the windows stay open (the links' serialization already enforces the
bandwidth ceilings).

Fault tolerance: on a fault-free fabric every hop is FIFO, so a segment
arriving out of order means a *wiring bug* and :meth:`TcpStream.observe_wire`
raises :class:`~repro.errors.ProtocolError` — the hard tripwire the base
model has always had.  When a :class:`~repro.faults.FaultPlan` is active
(``fault_tolerant=True``) reordering and duplication are expected wire
behaviour: the stream counts them and the per-strip assembly buffers
whatever order segments arrive in, reassembling the strip once every
ordinal is present — i.e. buffer-and-reassemble instead of crash.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import ProtocolError
from .packet import Packet

__all__ = ["segment_sizes", "segments_for_strip", "TcpStream"]


def segment_sizes(nbytes: int, mss: int) -> list[int]:
    """Split ``nbytes`` into maximum-segment-size chunks.

    >>> segment_sizes(10, 4)
    [4, 4, 2]
    """
    if nbytes <= 0:
        raise ProtocolError(f"nbytes must be positive, got {nbytes}")
    if mss <= 0:
        raise ProtocolError(f"mss must be positive, got {mss}")
    full, rest = divmod(nbytes, mss)
    sizes = [mss] * full
    if rest:
        sizes.append(rest)
    return sizes


def segments_for_strip(base: Packet, mss: int | None) -> list[Packet]:
    """Explode a strip-sized packet into per-segment packets.

    With ``mss=None``, or a strip that fits one segment, the strip travels
    as a single coalesced train (the default interrupt-per-strip
    accounting) and ``base`` itself is returned: nothing downstream
    mutates a packet in flight (the fault middlebox replaces packets).
    """
    if mss is None or base.size <= mss:
        return [base]
    sizes = segment_sizes(base.size, mss)
    n_segments = len(sizes)
    return [
        base.as_segment(size, i, n_segments) for i, size in enumerate(sizes)
    ]


@dataclasses.dataclass
class _StripAssembly:
    expected: int
    received: set[int] = dataclasses.field(default_factory=set)
    nbytes: int = 0


class TcpStream:
    """Per-connection ordered delivery and strip reassembly bookkeeping.

    The sender pushes packets (segments) in order; :meth:`deliver` tells the
    receiver whether a strip just completed.  Out-of-order arrival on one
    stream is a protocol error — the links are FIFO, so seeing it means a
    wiring bug in the fabric model — *unless* the stream was built
    ``fault_tolerant`` because an active fault plan makes reordering a
    legitimate hazard to absorb.
    """

    def __init__(
        self, server: int, client: int, fault_tolerant: bool = False
    ) -> None:
        self.server = server
        self.client = client
        #: Reordering/duplication tolerated (an active fault plan) rather
        #: than treated as a fabric wiring bug.
        self.fault_tolerant = fault_tolerant
        self._in_flight: dict[int, _StripAssembly] = {}
        self._completed_sizes: dict[int, int] = {}
        #: Next wire-arrival segment ordinal expected per in-flight strip.
        self._wire_cursor: dict[int, int] = {}
        #: Segments that arrived out of wire order (tolerant mode only).
        self.reorder_events = 0
        #: Segments received again for an ordinal already assembled.
        self.duplicate_segments = 0
        #: Next *delivery-order* ordinal expected per in-flight strip —
        #: delivery is where softirq processing hands the segment to the
        #: receiver, so this cursor sees reordering the wire cursor
        #: cannot: segments steered to different cores' softirq queues
        #: complete in core-business order, not ordinal order (the Flow
        #: Director pathology).
        self._delivery_cursor: dict[int, int] = {}
        #: Consecutive dup-ACKs outstanding for the current hole, per strip.
        self._hole_dupacks: dict[int, int] = {}
        #: Segments *delivered* (processed) out of ordinal order.
        self.out_of_order_deliveries = 0
        #: Duplicate ACKs the receiver would emit (one per out-of-order
        #: delivery while a hole is open).
        self.dup_acks = 0
        #: Holes that accumulated 3 dup-ACKs — a real sender would fast
        #: retransmit here.  Counted only; the strip still reassembles
        #: from the original segments, so goodput accounting is
        #: unchanged (the counters are pure observability).
        self.fast_retransmits = 0

    def observe_wire(self, packet: Packet) -> bool:
        """Record a segment's *wire arrival* order; True if it was in order.

        A strip's segments serialize through FIFO hops, so on a healthy
        fabric they reach the NIC in ordinal order; anything else raises
        :class:`~repro.errors.ProtocolError` (wiring-bug tripwire).  In
        fault-tolerant mode the event is counted instead and the strip
        assembly buffers the segment for reassembly.
        """
        if packet.n_segments <= 1:
            return True
        expected = self._wire_cursor.get(packet.strip_id, 0)
        if packet.segment == expected:
            nxt = expected + 1
            if nxt >= packet.n_segments:
                self._wire_cursor.pop(packet.strip_id, None)
            else:
                self._wire_cursor[packet.strip_id] = nxt
            return True
        if not self.fault_tolerant:
            raise ProtocolError(
                f"out-of-order segment {packet.segment} of strip "
                f"{packet.strip_id} (expected {expected}) on stream "
                f"({self.server}->{self.client}) with no fault plan active"
            )
        self.reorder_events += 1
        if packet.segment > expected:
            self._wire_cursor[packet.strip_id] = packet.segment + 1
        return False

    def deliver(self, packet: Packet) -> bool:
        """Record one received segment; returns True when its strip is whole."""
        if packet.src_server != self.server or packet.dst_client != self.client:
            raise ProtocolError(
                f"packet for ({packet.src_server}->{packet.dst_client}) on "
                f"stream ({self.server}->{self.client})"
            )
        assembly = self._in_flight.get(packet.strip_id)
        if assembly is None:
            assembly = _StripAssembly(expected=packet.n_segments)
            self._in_flight[packet.strip_id] = assembly
        elif assembly.expected != packet.n_segments:
            raise ProtocolError(
                f"inconsistent segmentation for strip {packet.strip_id}"
            )
        if packet.segment in assembly.received:
            if self.fault_tolerant:
                # A client-side strip retry re-served data we already
                # hold; drop the duplicate bytes on the floor.
                self.duplicate_segments += 1
                return False
            raise ProtocolError(
                f"duplicate segment {packet.segment} for strip {packet.strip_id}"
            )
        assembly.received.add(packet.segment)
        assembly.nbytes += packet.size
        self._note_delivery_order(packet.strip_id, packet.segment, assembly)
        if len(assembly.received) == assembly.expected:
            del self._in_flight[packet.strip_id]
            self._wire_cursor.pop(packet.strip_id, None)
            self._delivery_cursor.pop(packet.strip_id, None)
            self._hole_dupacks.pop(packet.strip_id, None)
            self._completed_sizes[packet.strip_id] = assembly.nbytes
            return True
        return False

    def _note_delivery_order(
        self, strip_id: int, segment: int, assembly: _StripAssembly
    ) -> None:
        """Count delivery-order anomalies for one accepted segment.

        A receiver ACKs the highest contiguous ordinal: a segment beyond
        the lowest missing one is an out-of-order delivery and elicits a
        duplicate ACK for the hole; the third dup-ACK for the same hole
        would trigger the sender's fast retransmit.  Counting only —
        assembly already buffers any order.
        """
        if assembly.expected <= 1:
            return
        expected = self._delivery_cursor.get(strip_id, 0)
        if segment != expected:
            self.out_of_order_deliveries += 1
            self.dup_acks += 1
            run = self._hole_dupacks.get(strip_id, 0) + 1
            self._hole_dupacks[strip_id] = run
            if run == 3:
                self.fast_retransmits += 1
            return
        # The hole (if any) just filled: advance past everything buffered.
        nxt = expected + 1
        while nxt in assembly.received:
            nxt += 1
        self._delivery_cursor[strip_id] = nxt
        self._hole_dupacks.pop(strip_id, None)

    def take_completed_size(self, strip_id: int) -> int:
        """Claim the reassembled byte count of a just-completed strip."""
        try:
            return self._completed_sizes.pop(strip_id)
        except KeyError:
            raise ProtocolError(
                f"strip {strip_id} has no completed assembly to claim"
            ) from None

    def in_flight_strips(self) -> t.Iterable[int]:
        """Strip ids with at least one but not all segments received."""
        return self._in_flight.keys()
