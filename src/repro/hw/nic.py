"""The client NIC: receive serialization, coalescing and the driver hook.

Wire behaviour: all inbound packets serialize through the (bonded) link at
the aggregate port bandwidth — this is what makes the 1-Gigabit
configuration interrupt-sparse and the 3-Gigabit configuration
interrupt-dense, which in turn controls how much migration queueing the
balanced policies suffer.

Driver behaviour: after a packet is fully received, the driver hook runs.
With SAIs installed, the hook is ``SrcParser.parse`` — it reads the IP
options field and extracts ``aff_core_id`` *before the interrupt message is
composed* (paper Sec. IV-B, steps 4-5).  The NIC then asks the I/O APIC to
raise the interrupt with that context.

Interrupt coalescing: PVFS data strips arrive as trains of MTU frames.  By
default the model raises one interrupt per strip train (the paper's
accounting); with ``NetworkConfig.mss`` set each segment interrupts
separately; and with ``napi=True`` the NIC runs Linux-NAPI style —
interrupts are disabled while a poll is in progress and the polling core
drains up to :data:`NAPI_BUDGET` pending packets per interrupt, which
batches under load and (deliberately) fights per-packet source-aware
steering.
"""

from __future__ import annotations

import typing as t
from collections import deque

from ..des import Environment
from .apic import InterruptContext, IoApic

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.packet import Packet

__all__ = ["Nic", "NAPI_BUDGET"]

#: Packets one NAPI poll drains before the softirq yields and reschedules
#: (Linux's default NAPI weight).
NAPI_BUDGET = 64


class Nic:
    """Receive path of the client's (possibly bonded) NIC."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        ioapic: IoApic,
        framing_overhead: float = 0.0,
        driver_hook: t.Callable[["Packet"], int | None] | None = None,
        composer: t.Callable[["Packet", int | None], InterruptContext] | None = None,
        napi: bool = False,
        rx_observer: t.Callable[["Packet"], None] | None = None,
        zero_interrupt_sink: t.Callable[["Packet"], None] | None = None,
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = bandwidth
        self.ioapic = ioapic
        self.framing_overhead = framing_overhead
        #: Wire-arrival hook run on every received packet before the
        #: interrupt path sees it — the TCP layer's per-strip ordering
        #: tripwire (``PfsClient.observe_wire``).  Pure bookkeeping: it
        #: never yields, so it costs no simulated time.
        self.rx_observer = rx_observer
        #: Driver-level parser (SAIs ``SrcParser``), or None for a stock
        #: driver that composes interrupt messages without a hint.
        self.driver_hook = driver_hook
        #: Interrupt-message composer (SAIs ``IMComposer.compose``), or
        #: None for the stock message format.
        self.composer = composer
        #: Zero-interrupt receive sink (RDMA-style NIC-driven placement):
        #: when installed, a fully-received packet is handed to the sink
        #: *instead of* raising any interrupt — no vector dispatch, no
        #: softirq.  Wired by the client when the policy declares
        #: ``interrupt_free``; None on every interrupting stack.
        self.zero_interrupt_sink = zero_interrupt_sink
        #: NAPI mode: interrupts are disabled while a poll is in progress;
        #: packets accumulate in :attr:`pending` and the polling core
        #: drains up to :data:`NAPI_BUDGET` of them per interrupt.
        self.napi = napi
        self._pending: deque["Packet"] = deque()
        self._irq_armed = True
        #: Span recorder + this client's NIC-wire lane (repro.obs);
        #: None when tracing is off (the default — zero cost).
        self.spans = spans
        self.obs_track = obs_track
        #: Wire span ids keyed (strip, segment), consumed when the
        #: packet's interrupt is raised (the IRQ-placement flow source).
        self._rx_spans: dict[tuple[int, int], int] = {}
        #: Next-free time of the bonded wire's FIFO (see :meth:`admit`).
        self._wire_free = 0.0
        self.bytes_received = 0
        self.packets_received = 0
        self.interrupts_raised = 0

    def wire_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` of payload on the bonded link."""
        return nbytes * (1.0 + self.framing_overhead) / self.bandwidth

    def admit(self, nbytes: int, arrival: float) -> float:
        """Reserve the wire analytically for a packet landing at ``arrival``.

        The wire is a FIFO server in closed form: the packet queues behind
        the wire's drain time, serializes, and is fully received at the
        returned instant.  ``arrival`` may be in the future (the wire
        reserves at upstream-departure time).  Invariant: calls come in
        nondecreasing ``arrival`` order, equal arrivals in the order they
        reach the port.  Upstream departures are monotone, so admitting at
        relay time keeps that order; a reorder-delayed packet breaks it,
        so :class:`~repro.net.fastpath.WireFastPath` holds such packets
        back and admits them by arrival time.  The caller schedules
        :meth:`complete_rx` at the returned time.
        """
        start = self._wire_free
        if start < arrival:
            start = arrival
        done = start + self.wire_time(nbytes)
        self._wire_free = done
        return done

    def complete_rx(self, packet: "Packet") -> None:
        """Post-wire receive half: counters, wire span, tripwire, interrupt.

        Runs at the instant the packet is fully off the wire: a callback
        the wire schedules at the :meth:`admit` completion time.
        """
        self.bytes_received += packet.size
        self.packets_received += 1
        if self.spans is not None:
            # The span is reconstructed from the (deterministic) wire
            # time: the packet held the wire for the last wire_time.
            now = self.env.now
            self._rx_spans[(packet.strip_id, packet.segment)] = self.spans.add(
                "wire",
                "nic",
                self.obs_track,
                start=now - self.wire_time(packet.size),
                end=now,
                parent=self.spans.strip_span(
                    packet.dst_client, packet.strip_id
                ),
                args={"strip": packet.strip_id, "segment": packet.segment},
            )
        if self.rx_observer is not None:
            self.rx_observer(packet)
        if self.zero_interrupt_sink is not None:
            # RDMA-style completion: data is already placed; nothing to
            # interrupt.  interrupts_raised stays at zero by construction.
            self.zero_interrupt_sink(packet)
            return
        if self.napi:
            self._pending.append(packet)
            if self._irq_armed:
                self._irq_armed = False
                self._raise(packet, napi=True)
        else:
            self._raise(packet)

    # -- NAPI poll interface (called by the handling softirq) ----------------

    def napi_poll(self) -> "Packet | None":
        """Next pending packet, or None (poll done, interrupts re-armed)."""
        if self._pending:
            return self._pending.popleft()
        self._irq_armed = True
        return None

    def napi_reschedule(self) -> None:
        """Budget exhausted with work left: raise a fresh poll interrupt."""
        if not self._pending:  # drained in the meantime
            self._irq_armed = True
            return
        self._raise(self._pending[0], napi=True)

    @property
    def pending_packets(self) -> int:
        """Packets waiting for a NAPI poll."""
        return len(self._pending)

    def _raise(self, packet: "Packet", napi: bool = False) -> None:
        aff_core_id: int | None = None
        if self.driver_hook is not None:
            aff_core_id = self.driver_hook(packet)
        if self.composer is not None:
            ctx = self.composer(packet, aff_core_id)
        else:
            ctx = InterruptContext(packet=packet, aff_core_id=aff_core_id)
        if napi:
            ctx.napi_source = self
        if self.spans is not None:
            wire_sid = self._rx_spans.pop(
                (packet.strip_id, packet.segment), None
            )
            if wire_sid is not None:
                # IRQ-placement edge: wire completion -> whichever core's
                # softirq span ends up handling this interrupt.
                ctx.obs_flow = self.spans.flow_begin(
                    "irq-placement", "irq", wire_sid
                )
        self.interrupts_raised += 1
        self.ioapic.raise_interrupt(ctx)

    @property
    def busy_time(self) -> float:
        """Total wire-busy seconds so far."""
        return self.wire_time(self.bytes_received)
