"""Per-core softirq daemons: where interrupt protocol work actually runs.

Each core has one daemon draining its interrupt backlog, a FIFO of pending
contexts it owns.  An idle daemon parks on one wake event, which the next
IRQ entry completes in place, so the handling starts within the raising
event.  For every strip interrupt the daemon

1. occupies its core at softirq priority for ``P`` (the paper's strip
   processing cost: protocol work proportional to the strip size plus a
   fixed vector overhead),
2. installs the strip into the core's private cache (this is the moment
   the data becomes resident *somewhere*, and under balanced policies that
   somewhere is usually the wrong core),
3. notifies the PFS client, paying the inter-core wake-up cost when the
   consumer lives elsewhere (paper Sec. IV-B step 6).
"""

from __future__ import annotations

import typing as t
from collections import deque

from ..config import CostModel
from ..des import Environment, Event
from ..hw.apic import InterruptContext
from ..hw.cache import CacheSystem
from ..hw.core import SOFTIRQ_PRIORITY, Core
from ..hw.interconnect import InterconnectBus

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pfs.client import PfsClient

__all__ = ["SoftirqDaemon"]


class SoftirqDaemon:
    """One core's softirq thread."""

    def __init__(
        self,
        env: Environment,
        core: Core,
        cache: CacheSystem,
        costs: CostModel,
        pfs: "PfsClient",
        interconnect: InterconnectBus,
        peers: t.Sequence["SoftirqDaemon"],
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        self.env = env
        self.core = core
        self.cache = cache
        self.costs = costs
        self.pfs = pfs
        #: Span recorder + this core's lane (repro.obs); None when off.
        self.spans = spans
        self.obs_track = obs_track
        #: The client's InterconnectBus, for RPS/RFS cross-core signals.
        self.interconnect = interconnect
        #: All sibling daemons indexed by core; the RPS handoff enqueues
        #: into the target core's daemon.
        self.peers = peers
        #: Pending contexts, oldest first.
        self.backlog: deque[InterruptContext] = deque()
        #: The event the idle daemon waits on; None while it is working.
        self._wake: Event | None = None
        self.handled = 0
        self.bytes_handled = 0
        #: Contexts this core re-steered to another core's softirq
        #: (RPS/RFS); the receiving daemon counts them in ``handled``.
        self.steered = 0
        #: Data packets that should have carried a SAIs hint but arrived
        #: option-less (a middlebox stripped it): the traffic the
        #: degraded fallback steers.  Always zero on a stock stack.
        self.unhinted = 0
        self._expect_hints = pfs.hint_messager is not None
        env.process(self._run())

    def register_metrics(self, registry: t.Any, prefix: str) -> None:
        """Expose this daemon's counts in a :class:`MetricsRegistry`."""
        registry.register(f"{prefix}.handled", lambda: self.handled)
        registry.register(f"{prefix}.steered", lambda: self.steered)

    def enqueue(self, ctx: InterruptContext) -> None:
        """IRQ entry: hand the context to this core's daemon.

        A working daemon finds it in its backlog.  An idle one is resumed
        here: its wake event is completed in place and its one subscriber,
        the daemon's own process, runs now, inside the raising event and
        ahead of other same-time events, with no wake-up event on the
        calendar (the goldens pin this order).
        """
        wake = self._wake
        if wake is None:
            self.backlog.append(ctx)
            return
        self._wake = None
        wake._value = ctx
        callbacks, wake.callbacks = wake.callbacks, None
        for callback in callbacks:
            callback(wake)

    def _run(self) -> t.Generator:
        backlog = self.backlog
        while True:
            if backlog:
                ctx = backlog.popleft()
            else:
                self._wake = Event(self.env)
                ctx = yield self._wake
            yield from self._handle(ctx)

    def _handle(self, ctx: InterruptContext) -> t.Generator:
        if ctx.rps_target is not None:
            target = ctx.rps_target
            ctx.rps_target = None
            if target != self.core.index:
                yield from self._steer(ctx, target)
                return
        core = self.core
        grant = core.acquire(SOFTIRQ_PRIORITY)
        if grant is not None:
            yield grant
        nic = ctx.napi_source
        try:
            if nic is None:
                yield from self._process_packet(ctx.packet, ctx.obs_flow)
                return
            # NAPI poll: drain the NIC's pending queue on this core, up to
            # the poll budget, then either re-arm interrupts (drained) or
            # reschedule a fresh poll (budget exhausted under load).
            flow = ctx.obs_flow
            budget = nic.napi_budget
            while budget > 0:
                packet = nic.napi_poll()
                if packet is None:
                    return  # queue drained; interrupts re-armed
                yield from self._process_packet(packet, flow)
                flow = None  # the edge lands on the first polled packet
                budget -= 1
        finally:
            core.release()
        nic.napi_reschedule()

    def _steer(self, ctx: InterruptContext, target: int) -> t.Generator:
        """RPS/RFS cross-core handoff from the hardware-IRQ core.

        The hardirq core pays the dispatch half (flow-table lookup +
        enqueue-to-remote-backlog, ``rps_dispatch_cost``), signals the
        target core over the serialized interconnect (the IPI that kicks
        the remote softirq), and re-enqueues the context there.  The
        protocol-processing cost P is then paid on the *target* core —
        the extra inter-core hop is the price RPS/RFS pays for
        source-aware placement without SAIs' wire hints.
        """
        yield from self.core.run(
            self.costs.rps_dispatch_cost, "rps_dispatch", SOFTIRQ_PRIORITY
        )
        yield from self.interconnect.signal()
        self.steered += 1
        self.peers[target].enqueue(ctx)

    def _process_packet(self, packet, flow: int | None = None) -> t.Generator:
        """Protocol-process one packet while already holding the core.

        ``flow`` is the open IRQ-placement edge from the NIC (span
        tracing only); it terminates at this packet's softirq span.
        """
        sid = None
        if self.spans is not None:
            # Post-grant on a unit-capacity core: softirq spans on this
            # lane can never overlap, so a complete ("X") slice is safe.
            sid = self.spans.begin(
                "softirq",
                "kernel",
                self.obs_track,
                parent=self.spans.strip_span(
                    packet.dst_client, packet.strip_id
                ),
                args={"strip": packet.strip_id, "segment": packet.segment},
            )
            if flow is not None:
                self.spans.flow_end(flow, sid)
        processing = self.costs.strip_processing_time(packet.size)
        yield self.core.run_locked(processing, "softirq")
        if self._expect_hints and packet.carries_data and not packet.options:
            self.unhinted += 1
        # Completes the strip when it is whole (single train, or last
        # segment of a segmented flow); the PFS client stamps that instant
        # on the strip span as "handled", before any wake-up IPI below.
        outstanding = self.pfs.segment_arrived(packet, self.core.index)
        if outstanding is not None:
            if packet.carries_data:
                # Protocol processing pulled the packet data through
                # this core's cache: the strip is now resident *here*.
                self.cache.install(self.core.index, packet.strip_id)
            if outstanding.consumer_core != self.core.index:
                # Cross-core wake-up IPI (paper: "inter-core signals
                # are sent to wake the application process").
                yield self.core.run_locked(self.costs.wakeup_cost, "wakeup")
        self.handled += 1
        self.bytes_handled += packet.size
        if sid is not None:
            self.spans.end(sid)
            if outstanding is not None and packet.carries_data:
                # This span is where the strip's data now resides — the
                # source of a migration edge if the consumer is elsewhere.
                self.spans.note_handled(
                    packet.dst_client,
                    packet.strip_id,
                    sid,
                    self.env.now,
                    self.core.index,
                )
