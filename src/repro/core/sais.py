"""The four SAIs components of the paper's Fig. 3 architecture.

Client side:

* :class:`HintMessager` — step 1-2: packs the requesting core's id
  (``aff_core_id``) into the outgoing PVFS request as a ``PVFS_hint``;
* :class:`SrcParser` — step 4: runs in the NIC driver on every inbound
  packet, decoding ``aff_core_id`` from the IP options field;
* :class:`IMComposer` — step 5: composes the interrupt message with
  ``aff_core_id`` as the local-APIC destination address.

Server side:

* :class:`HintCapsuler` — step 3: stamps ``aff_core_id`` into the IP
  options of every returned data packet.

The pieces are deliberately tiny — the paper's point is that source
awareness needs only a hint channel and a driver-level parse, not a new
protocol.
"""

from __future__ import annotations

import typing as t

from ..errors import CoreIdOutOfRangeError, ProtocolError
from ..hw.apic import InterruptContext
from ..net.ip_options import decode_aff_core_id, encode_aff_core_id

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.packet import Packet
    from ..pfs.request import StripRequest

__all__ = ["HintMessager", "HintCapsuler", "SrcParser", "IMComposer"]


class HintMessager:
    """Attaches ``aff_core_id`` to outgoing PVFS requests (PVFS_hint)."""

    def __init__(self) -> None:
        self.hints_attached = 0
        #: Requests whose issuing core exceeds the 5-bit wire encoding —
        #: the paper's "maximum 2^5 = 32 cores could be identified by
        #: SAIs" limitation.  These requests travel unhinted and their
        #: interrupts fall back to load-based placement.
        self.hints_unencodable = 0

    def attach(self, request: "StripRequest", core_index: int) -> bool:
        """Record the issuing core in the request's hint field.

        Returns True if the hint fits the 5-bit wire encoding; for cores
        the encoding cannot express (index >= 32) the request is left
        unhinted and False is returned — SAIs degrades gracefully to
        conventional scheduling for those processes rather than failing.
        """
        try:
            # Validate encodability eagerly; the encoded form is recreated
            # by the server's HintCapsuler per returned packet.
            encode_aff_core_id(core_index)
        except CoreIdOutOfRangeError:
            self.hints_unencodable += 1
            return False
        request.hint_aff_core_id = core_index
        self.hints_attached += 1
        return True


class HintCapsuler:
    """Server side: echoes the request hint into each reply packet's IP
    options field."""

    def __init__(self) -> None:
        self.packets_stamped = 0

    def encapsulate(self, packet: "Packet", hint_aff_core_id: int | None) -> None:
        """Stamp ``packet`` with the hint, if the request carried one."""
        if hint_aff_core_id is None:
            return
        packet.options = encode_aff_core_id(hint_aff_core_id)
        self.packets_stamped += 1


class SrcParser:
    """NIC-driver hook: extracts ``aff_core_id`` before the IRQ is raised.

    ``n_cores`` is the host's core count: a corrupted options field can
    decode to a *syntactically* valid SAIs option naming a core the
    machine does not have, and the driver must treat that exactly like
    any other garbage — count it, return None, never steer there.
    """

    def __init__(self, n_cores: int | None = None) -> None:
        self.n_cores = n_cores
        self.packets_parsed = 0
        self.hints_found = 0
        #: Packets whose options field could not be decoded.  A driver
        #: must never crash on wire garbage: the packet is treated as
        #: unhinted and interrupt routing falls back to load-based.
        self.parse_errors = 0
        #: The subset of parse errors where a well-formed option decoded
        #: to a core id >= ``n_cores`` (corruption fabricating a core).
        self.hints_out_of_range = 0

    def parse(self, packet: "Packet") -> int | None:
        """Decode the packet's IP options; None when no SAIs option.

        Malformed options fields (corruption, foreign options) are
        tolerated: the parser counts the error and returns None rather
        than propagating, exactly as a production NIC driver must.
        """
        self.packets_parsed += 1
        try:
            aff = decode_aff_core_id(packet.options, self.n_cores)
        except CoreIdOutOfRangeError:
            self.hints_out_of_range += 1
            self.parse_errors += 1
            return None
        except ProtocolError:
            self.parse_errors += 1
            return None
        if aff is not None:
            self.hints_found += 1
        return aff


class IMComposer:
    """Builds the interrupt message carrying the affinitive destination."""

    def __init__(self) -> None:
        self.messages_composed = 0

    def compose(self, packet: "Packet", aff_core_id: int | None) -> InterruptContext:
        """Create the interrupt context delivered to the I/O APIC."""
        self.messages_composed += 1
        return InterruptContext(packet=packet, aff_core_id=aff_core_id)
