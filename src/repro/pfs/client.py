"""The client-side PVFS library.

``PfsClient`` fans one application read out into per-server strip requests
(attaching the SAIs ``PVFS_hint`` when a ``HintMessager`` is installed),
tracks the outstanding request, and hands arriving strips back to the
consuming process through a per-request queue — the application merges
strips *as they arrive*, which is how the real client's memcpy out of the
socket buffer behaves and what creates the consumer-side migration stalls
under balanced interrupt scheduling.

Strip *tokens*: every in-flight strip gets a client-unique id, so that two
processes reading overlapping file ranges do not alias each other's cache
residency entries.
"""

from __future__ import annotations

import dataclasses
import typing as t
from itertools import count

from ..core.sais import HintMessager
from ..des import Environment, Store
from ..errors import SimulationError, StripRetryExhaustedError
from ..net.tcp import TcpStream
from .layout import StripeLayout
from .request import IoRequest, StripRequest

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from ..net.packet import Packet

__all__ = ["PfsClient", "OutstandingRequest", "ArrivedStrip"]


@dataclasses.dataclass(frozen=True)
class ArrivedStrip:
    """What the softirq hands the consumer for each completed strip."""

    token: int
    size: int
    #: Core that handled the strip's interrupt (where the data now sits).
    handled_on: int


@dataclasses.dataclass
class OutstandingRequest:
    """Book-keeping for one in-flight application read."""

    request: IoRequest
    #: Core the consuming process runs on (the SAIs target).
    consumer_core: int
    #: Number of strip extents the read decomposed into.
    expected: int
    #: Arrival queue the consumer blocks on.
    arrivals: Store
    arrived: int = 0

    @property
    def complete(self) -> bool:
        """All strips have arrived (they may not all be merged yet)."""
        return self.arrived >= self.expected


class PfsClient:
    """Client-side request fan-out and completion tracking."""

    def __init__(
        self,
        env: Environment,
        client_index: int,
        layout: StripeLayout,
        submit: t.Callable[[StripRequest], None],
        hint_messager: HintMessager | None = None,
        plan: "FaultPlan | None" = None,
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        self.env = env
        self.client_index = client_index
        self.layout = layout
        #: Dispatches a strip request toward its server (wired by the
        #: cluster builder: ``IoServer.accept``, one request-path latency
        #: later).
        self._submit = submit
        #: Client-side SAIs component (None on a stock PVFS client).
        self.hint_messager = hint_messager
        #: The active fault plan, whose strip-retry fields drive the
        #: watchdog; None on a healthy fabric, where the client keeps its
        #: strict wiring tripwires.
        self.plan = plan
        #: Span recorder + this client's PFS lane (repro.obs); None off.
        self.spans = spans
        self.obs_track = obs_track
        self._fault_tolerant = plan is not None
        self._request_ids = count()
        self._strip_tokens = count()
        self._outstanding: dict[int, OutstandingRequest] = {}
        #: Per-server TCP reassembly state (segmented flows only).
        self._tcp_streams: dict[int, TcpStream] = {}
        #: Strips already handed to their consumer — dedups re-served
        #: strips when a retry raced the original (tolerant mode only).
        self._arrived_strips: set[int] = set()
        self.requests_issued = 0
        self.strips_requested = 0
        self.bytes_requested = 0
        #: Strip requests re-submitted by the retry watchdog.
        self.strip_retries = 0
        #: Completed strips discarded as duplicates of an earlier arrival.
        self.duplicate_strips = 0

    # -- issue path -------------------------------------------------------------

    def issue(
        self, offset: int, size: int, consumer_core: int, write: bool = False
    ) -> OutstandingRequest:
        """Fan a read (or write) out to the servers; returns the tracker.

        The *issuing* core is recorded both as ground truth on each strip
        request and — when SAIs is installed — as the ``PVFS_hint`` that
        the servers will echo back in the IP options.  For writes the
        strips carry data outbound and the tracked arrivals are the
        servers' acknowledgements.
        """
        request = IoRequest(
            request_id=next(self._request_ids),
            client=self.client_index,
            offset=offset,
            size=size,
            issuing_core=consumer_core,
        )
        extents = self.layout.extents(offset, size)
        outstanding = OutstandingRequest(
            request=request,
            consumer_core=consumer_core,
            expected=len(extents),
            arrivals=Store(self.env),
        )
        self._outstanding[request.request_id] = outstanding
        self.requests_issued += 1
        self.bytes_requested += size
        spans = self.spans
        if spans is not None:
            request_sid = spans.begin(
                "write" if write else "read",
                "pfs",
                self.obs_track,
                overlapping=True,
                args={
                    "request": request.request_id,
                    "size": size,
                    "consumer_core": consumer_core,
                    "strips": len(extents),
                },
            )
            spans.request_begin(
                self.client_index, request.request_id, request_sid
            )
        for extent in extents:
            strip_request = StripRequest(
                request_id=request.request_id,
                client=self.client_index,
                server=extent.server,
                strip_id=next(self._strip_tokens),
                offset=extent.offset,
                size=extent.size,
                issuing_core=consumer_core,
                is_write=write,
            )
            if self.hint_messager is not None:
                self.hint_messager.attach(strip_request, consumer_core)
            if spans is not None:
                strip_sid = spans.begin(
                    "strip",
                    "pfs",
                    self.obs_track,
                    parent=request_sid,
                    overlapping=True,
                    args={
                        "strip": strip_request.strip_id,
                        "server": extent.server,
                        "size": extent.size,
                    },
                )
                spans.strip_begin(
                    self.client_index, strip_request.strip_id, strip_sid
                )
            self.strips_requested += 1
            self._submit(strip_request)
            if self._fault_tolerant:
                self.env.process(self._strip_watchdog(strip_request))
        return outstanding

    def _strip_watchdog(self, request: StripRequest) -> t.Generator:
        """Re-submit a strip that stays unanswered; capped retries.

        Recovers requests swallowed by a server's transient-failure
        window.  The exception raised after the cap propagates out of
        ``env.run`` (the DES stops the world on an unwaited process
        failure), surfacing as a typed error rather than a hang.
        """
        plan = self.plan
        assert plan is not None
        delay = plan.strip_retry_timeout
        for _attempt in range(plan.max_strip_retries):
            yield self.env.timeout(delay)
            if request.strip_id in self._arrived_strips:
                return
            self.strip_retries += 1
            if self.spans is not None:
                self.spans.instant(
                    "retry",
                    "pfs",
                    self.obs_track,
                    parent=self.spans.strip_span(
                        self.client_index, request.strip_id
                    ),
                    args={"strip": request.strip_id, "attempt": _attempt + 1},
                )
            self._submit(request)
            delay *= plan.strip_retry_backoff
        yield self.env.timeout(delay)
        if request.strip_id in self._arrived_strips:
            return
        raise StripRetryExhaustedError(
            f"strip {request.strip_id} (request {request.request_id}, "
            f"server {request.server}) still missing after "
            f"{plan.max_strip_retries} retries"
        )

    # -- completion path ---------------------------------------------------------

    def segment_arrived(
        self, packet: "Packet", handled_on: int
    ) -> OutstandingRequest | None:
        """Record one handled segment; completes its strip when whole.

        Unsegmented packets (one coalesced train per strip) complete
        immediately.  For MSS-segmented flows, reassembly state tracks the
        strip until the last segment lands; intermediate segments return
        None and the consumer stays asleep.
        """
        if packet.n_segments == 1:
            return self.strip_arrived(packet, handled_on)
        stream = self._stream_for(packet.src_server)
        if not stream.deliver(packet):
            return None
        full_size = stream.take_completed_size(packet.strip_id)
        whole = packet.as_segment(full_size, 0, 1)
        return self.strip_arrived(whole, handled_on)

    def observe_wire(self, packet: "Packet") -> None:
        """NIC-arrival hook: enforce (or count) per-strip wire ordering.

        Runs before the interrupt path touches the packet.  On a healthy
        fabric an out-of-order segment is a wiring bug and raises; with a
        fault plan active the stream just counts the reordering and the
        assembly buffers the segment (see ``TcpStream.observe_wire``).
        """
        if packet.n_segments <= 1:
            return
        self._stream_for(packet.src_server).observe_wire(packet)

    def _stream_for(self, server: int) -> TcpStream:
        stream = self._tcp_streams.get(server)
        if stream is None:
            stream = TcpStream(
                server, self.client_index, fault_tolerant=self._fault_tolerant
            )
            self._tcp_streams[server] = stream
        return stream

    def strip_arrived(
        self, packet: "Packet", handled_on: int
    ) -> OutstandingRequest | None:
        """Called by the softirq once a strip's packet train is processed.

        In fault-tolerant mode a strip can legitimately complete twice —
        the retry watchdog re-served it and the original then landed.
        The duplicate is counted and dropped (returns None) so the
        consumer sees each strip exactly once.
        """
        if self._fault_tolerant:
            if packet.strip_id in self._arrived_strips:
                self.duplicate_strips += 1
                return None
            self._arrived_strips.add(packet.strip_id)
        outstanding = self._outstanding.get(packet.request_id)
        if outstanding is None:
            raise SimulationError(
                f"strip for unknown request {packet.request_id} "
                f"(token {packet.strip_id})"
            )
        outstanding.arrived += 1
        if outstanding.arrived > outstanding.expected:
            raise SimulationError(
                f"request {packet.request_id} received more strips than expected"
            )
        outstanding.arrivals.put_nowait(
            ArrivedStrip(
                token=packet.strip_id, size=packet.size, handled_on=handled_on
            )
        )
        spans = self.spans
        if spans is not None:
            sid = spans.strip_span(self.client_index, packet.strip_id)
            if sid is not None:
                # The strip's "handled" stamp: protocol work done (or the
                # zero-interrupt placement made), before any cross-core
                # wake-up IPI.  A duplicate never gets here.
                spans.annotate(sid, {"handled_at": self.env.now})
                if not packet.carries_data:
                    # Write acks carry no consumable data: there is no
                    # merge, so the strip's lifecycle ends right here.
                    spans.end_if_open(sid)
        return outstanding

    def locate_request(self, request_id: int) -> int | None:
        """Current consumer core of an in-flight request (policy-ii oracle)."""
        outstanding = self._outstanding.get(request_id)
        return None if outstanding is None else outstanding.consumer_core

    def retire(self, request_id: int) -> None:
        """Drop tracking state once the consumer has merged everything."""
        outstanding = self._outstanding.pop(request_id, None)
        if outstanding is None:
            raise SimulationError(f"retiring unknown request {request_id}")
        if not outstanding.complete:
            raise SimulationError(
                f"retiring request {request_id} with strips still in flight"
            )
        if self.spans is not None:
            sid = self.spans.request_span(self.client_index, request_id)
            if sid is not None:
                self.spans.end_if_open(sid)

    @property
    def in_flight(self) -> int:
        """Number of requests not yet retired."""
        return len(self._outstanding)

    @property
    def reorder_events(self) -> int:
        """Out-of-wire-order segments absorbed across all server streams."""
        return sum(s.reorder_events for s in self._tcp_streams.values())

    @property
    def duplicate_segments(self) -> int:
        """Duplicate segments dropped across all server streams."""
        return sum(s.duplicate_segments for s in self._tcp_streams.values())

    @property
    def out_of_order_segments(self) -> int:
        """Segments *delivered* (softirq-processed) out of ordinal order.

        Nonzero when interrupt steering split one flow's segments across
        cores mid-strip — the Flow Director reordering pathology.  Flows
        whose segments all process on one core (rss, and flow_director
        while its table is stable) contribute zero.
        """
        return sum(
            s.out_of_order_deliveries for s in self._tcp_streams.values()
        )

    @property
    def dup_acks(self) -> int:
        """Duplicate ACKs elicited by out-of-order deliveries."""
        return sum(s.dup_acks for s in self._tcp_streams.values())

    @property
    def fast_retransmits(self) -> int:
        """Holes that reached 3 dup-ACKs (sender would fast-retransmit)."""
        return sum(s.fast_retransmits for s in self._tcp_streams.values())
