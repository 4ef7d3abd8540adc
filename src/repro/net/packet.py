"""Network packets carrying PVFS strip data back to the client.

A :class:`Packet` models one coalesced train of MTU frames carrying a whole
strip (or a segment of one, when TCP segmentation is enabled).  The fields
the interrupt path cares about are ``options`` (the raw IP options bytes the
``HintCapsuler`` stamped on the server) and the flow identifiers used to
reassemble the strip into its request.
"""

from __future__ import annotations

import dataclasses

from ..errors import ProtocolError

__all__ = ["Packet"]


@dataclasses.dataclass(slots=True)
class Packet:
    """One unit of data delivery from an I/O server to the client."""

    #: Payload bytes (framing overhead is charged by links/NICs).
    size: int
    #: Sending I/O server index.
    src_server: int
    #: Destination client index (0 for single-client experiments).
    dst_client: int
    #: The I/O request this strip belongs to (the "source" in
    #: source-aware nomenclature).
    request_id: int
    #: The strip within the file layout.
    strip_id: int
    #: Raw IP options bytes (may be empty when the server runs no
    #: HintCapsuler).
    options: bytes = b""
    #: Ground truth: the core the requesting process occupied at issue time.
    #: Only oracle policies may read this — the realistic SAIs path must go
    #: through the options field.
    request_core: int | None = None
    #: Segment ordinal within the strip (0 when unsegmented).
    segment: int = 0
    #: Total number of segments carrying this strip.
    n_segments: int = 1
    #: False for control traffic (write acknowledgements): the payload is
    #: not strip data, so the softirq does not install it into a cache.
    carries_data: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ProtocolError(f"packet size must be positive, got {self.size}")
        if self.n_segments < 1 or not 0 <= self.segment < self.n_segments:
            raise ProtocolError(
                f"bad segmentation: segment={self.segment} of {self.n_segments}"
            )

    def as_segment(self, size: int, segment: int, n_segments: int) -> "Packet":
        """This packet's flow and strip as segment ``segment`` of
        ``n_segments``, carrying ``size`` bytes.

        Built with the constructor, so the new packet is validated like
        any other; :func:`dataclasses.replace` costs several times more
        on the per-segment path.
        """
        return Packet(
            size,
            self.src_server,
            self.dst_client,
            self.request_id,
            self.strip_id,
            self.options,
            self.request_core,
            segment,
            n_segments,
            self.carries_data,
        )

    @property
    def is_last_segment(self) -> bool:
        """True if this packet completes its strip."""
        return self.segment == self.n_segments - 1

    @property
    def flow_identity(self) -> tuple[int, int, int, int, int]:
        """Stable wire identity: (flow endpoints, request, strip, segment).

        Keys order-independent per-packet decisions — fault injection
        uses it with :func:`repro.rng.hash_unit` the same way the server
        page-cache model keys residency: by the object, not by event
        order, so paired A/B runs see the same pattern.
        """
        return (
            self.src_server,
            self.dst_client,
            self.request_id,
            self.strip_id,
            self.segment,
        )
