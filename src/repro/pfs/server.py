"""A PVFS I/O server node.

Serves strip requests from a disk + page-cache model and returns each strip
as one packet train over the server's uplink.  When a
:class:`~repro.core.sais.HintCapsuler` is installed (the server-side SAIs
component), every returned packet's IP options carry the request's
``aff_core_id`` hint.
"""

from __future__ import annotations

import typing as t

from ..config import ServerConfig
from ..core.sais import HintCapsuler
from ..des import Environment
from ..hw.disk import Disk
from ..net.fastpath import WireFastPath
from ..net.links import Link
from ..net.packet import Packet
from ..net.tcp import segments_for_strip
from ..rng import Pcg64Stream, hash_unit
from .request import StripRequest

__all__ = ["IoServer"]


class IoServer:
    """One I/O server: request decode -> storage -> uplink transmit."""

    def __init__(
        self,
        env: Environment,
        index: int,
        config: ServerConfig,
        uplink: Link,
        fastpath: WireFastPath,
        rng: Pcg64Stream,
        capsuler: HintCapsuler | None = None,
        mss: int | None = None,
        faults: t.Any | None = None,
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        self.env = env
        self.index = index
        self.config = config
        self.uplink = uplink
        #: The cluster's wire (:class:`~repro.net.fastpath.WireFastPath`):
        #: every reply leaves through it, from this server's uplink across
        #: the switch to its client's NIC, in two calendar events per
        #: segment.
        self.fastpath = fastpath
        self._rng = rng
        #: Server-side SAIs component (None on a stock PVFS server).
        self.capsuler = capsuler
        #: TCP maximum segment size; None = one coalesced train per strip.
        self.mss = mss
        #: Fault injector (straggler slowdown, transient-failure windows);
        #: None on a healthy cluster.
        self.faults = faults
        #: Span recorder + this server's serve lane (repro.obs); None off.
        self.spans = spans
        self.obs_track = obs_track
        self.disk = Disk(
            env, rate=config.disk_rate, seek=config.disk_seek, rng=rng
        )
        self.strips_served = 0
        self.bytes_served = 0
        self.cache_hits = 0

    def accept(self, request: StripRequest, arrival: float) -> None:
        """Take one strip request that reaches this server at ``arrival``.

        ``arrival`` is an absolute instant, now or later: the builder
        accepts a read request when it leaves the client and a written
        strip when it leaves the fabric.  Everything before the reply's
        first shared hop is private to the request (service overhead, a
        page-cache or buffered-write copy, the straggler stretch), so it
        is summed here into the start instant of one process, with the
        float expressions a chain of timeouts would evaluate.  A read hit
        and a write's ack start at their uplink request, a read miss at
        its disk request.
        """
        if request.server != self.index:
            raise ValueError(
                f"strip for server {request.server} routed to server {self.index}"
            )
        env = self.env
        config = self.config
        faults = self.faults
        if faults is not None and faults.server_offline(self.index, arrival):
            # Inside a transient-failure window the request vanishes; the
            # client-side retry watchdog is what recovers it, exactly the
            # failure mode a crashed-and-restarting server presents.  The
            # drop is counted at the arrival instant.
            env.call_at(arrival, faults.count_request_dropped)
            return
        fetch_at = arrival + config.service_overhead
        if request.is_write:
            # Buffered write: PVFS servers ack once the data is copied into
            # the page cache at memory speed; the flush is asynchronous.
            env.process(
                self._acknowledge(request, arrival),
                quiet=True,
                start_at=fetch_at + request.size / config.cache_rate,
            )
        elif hash_unit(self.index, request.offset) < config.cache_hit_ratio:
            # Whether an offset is page-cache-resident is a property of
            # the data (keyed on the offset), not of event order, so
            # paired A/B policy runs see identical hit patterns.
            ready = fetch_at + request.size / config.cache_rate
            factor = self._slowdown()
            if factor > 1.0:
                ready = ready + (factor - 1.0) * (ready - fetch_at)
            if faults is not None:
                # A re-submitted strip may still be in flight when the
                # run ends, so the hit is counted at its fetch instant.
                env.call_at(fetch_at, self._count_cache_hit)
            env.process(
                self._reply(request, arrival, fetch_at, faults is None),
                quiet=True,
                start_at=ready,
            )
        else:
            env.process(
                self._read_miss(request, arrival), quiet=True, start_at=fetch_at
            )

    #: Size of a write acknowledgement message on the wire.
    ACK_SIZE = 1024

    def _slowdown(self) -> float:
        """Straggler service-time multiplier of this server (1.0 = healthy).

        The slowdown is extra service time proportional to the storage
        fetch's duration, so it stretches cache hits and disk reads alike —
        a uniformly slow server, as in the straggler literature, not just a
        slow spindle.
        """
        if self.faults is None:
            return 1.0
        return self.faults.server_slowdown(self.index)

    def _count_cache_hit(self, _: object) -> None:
        """Count one page-cache hit (a ``call_at`` callback)."""
        self.cache_hits += 1

    def _read_miss(self, request: StripRequest, arrival: float) -> t.Generator:
        """A page-cache miss, started at its disk request."""
        fetch_at = self.env.now
        yield from self.disk.read(request.size)
        factor = self._slowdown()
        if factor > 1.0:
            yield self.env.timeout((factor - 1.0) * (self.env.now - fetch_at))
        yield from self._reply(request, arrival, fetch_at)

    def _reply(
        self,
        request: StripRequest,
        arrival: float,
        fetch_at: float,
        count_hit: bool = False,
    ) -> t.Generator:
        """Return the fetched strip as one packet train over the uplink,
        started at its uplink request."""
        if count_hit:
            # Every strip of a fault-free run is awaited by its IOR
            # process, so this start lies inside the run and the hit
            # counts the same here as at its fetch instant.
            self.cache_hits += 1
        sid = self._begin_span("serve", request, arrival)
        if sid is not None:
            self.spans.add(
                "storage",
                "server",
                self.obs_track,
                start=fetch_at,
                end=self.env.now,
                parent=sid,
                overlapping=True,
            )
        packet = Packet(
            size=request.size,
            src_server=self.index,
            dst_client=request.client,
            request_id=request.request_id,
            strip_id=request.strip_id,
            request_core=request.issuing_core,
        )
        if self.capsuler is not None:
            self.capsuler.encapsulate(packet, request.hint_aff_core_id)
        self.strips_served += 1
        self.bytes_served += request.size
        fastpath = self.fastpath
        for segment in segments_for_strip(packet, self.mss):
            # The IP option's copied flag (Fig. 4) replicates the hint
            # onto every segment, so SrcParser works on any of them.
            yield from fastpath.transmit_to_client(self.uplink, segment)
        if sid is not None:
            self.spans.end(sid)

    def _acknowledge(
        self, request: StripRequest, arrival: float
    ) -> t.Generator:
        """Acknowledge one buffered write, started at the ack's uplink
        request.

        The ack still traverses the full interrupt path on the client —
        but it is tiny and carries no consumable data, which is exactly
        why the paper scopes the locality problem to reads.
        """
        sid = self._begin_span("serve_write", request, arrival)
        # Asynchronous flush to disk, off the client's critical path.
        self.env.process(self.disk.write(request.size), quiet=True)
        ack = Packet(
            size=self.ACK_SIZE,
            src_server=self.index,
            dst_client=request.client,
            request_id=request.request_id,
            strip_id=request.strip_id,
            request_core=request.issuing_core,
            carries_data=False,
        )
        if self.capsuler is not None:
            self.capsuler.encapsulate(ack, request.hint_aff_core_id)
        self.strips_served += 1
        self.bytes_served += request.size
        yield from self.fastpath.transmit_to_client(self.uplink, ack)
        if sid is not None:
            self.spans.end(sid)

    def _begin_span(
        self, name: str, request: StripRequest, arrival: float
    ) -> int | None:
        """Open the serve lane's span of one request at its arrival."""
        if self.spans is None:
            return None
        # Concurrent serves on one server legitimately overlap, so the
        # lane uses async (b/e) rendering.
        return self.spans.begin(
            name,
            "server",
            self.obs_track,
            parent=self.spans.strip_span(request.client, request.strip_id),
            args={"strip": request.strip_id, "size": request.size},
            start=arrival,
            overlapping=True,
        )
