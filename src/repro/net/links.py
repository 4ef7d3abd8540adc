"""Point-to-point links: the sender's half of the wire.

A :class:`Link` charges the sender for queueing + serialization time (the
wire is a :class:`~repro.des.FixedServiceFifo`).  What happens after the
last bit leaves (the switch, the port latency, the receiving NIC) is
carried by :class:`~repro.net.fastpath.WireFastPath`.
"""

from __future__ import annotations

import typing as t

from ..des import Environment, FixedServiceFifo
from .packet import Packet

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import LinkFaults

__all__ = ["Link"]


class Link:
    """One direction of a network link: a serialization FIFO that may
    lose attempts."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        framing_overhead: float = 0.0,
        faults: "LinkFaults | None" = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = bandwidth
        self.framing_overhead = framing_overhead
        #: Loss injection + backoff schedule; None on a fault-free link.
        self.faults = faults
        self._wire = FixedServiceFifo(env)
        self.bytes_sent = 0
        self.packets_sent = 0
        #: Transmission attempts repeated after an injected loss.
        self.retransmits = 0

    def serialization_time(self, nbytes: int) -> float:
        """Wire time for ``nbytes`` of payload including framing."""
        return nbytes * (1.0 + self.framing_overhead) / self.bandwidth

    def send(self, packet: Packet) -> t.Generator:
        """Serialize ``packet`` onto the wire until one attempt gets through.

        The caller blocks for queueing + serialization.  With
        :attr:`faults` installed, a transmission attempt may be lost: the
        sender still paid the wire time (the bytes really crossed the
        link — that is what goodput-vs-raw-bandwidth measures), then waits
        out an exponentially backed-off retransmission timeout and sends
        again.  The caller stays blocked until an attempt gets through, so
        per-strip segment order is preserved under pure loss.  Returns at
        the departure instant of the attempt that got through.
        """
        attempt = 0
        while True:
            yield self._wire.serve(self.serialization_time(packet.size))
            self.bytes_sent += packet.size
            self.packets_sent += 1
            if self.faults is None or not self.faults.should_drop(
                packet, attempt
            ):
                return
            attempt += 1
            self.retransmits += 1
            yield self.env.timeout(self.faults.retransmit_delay(attempt))

    @property
    def busy_time(self) -> float:
        """Serialization seconds of the attempts sent so far."""
        return self._wire.busy_time
