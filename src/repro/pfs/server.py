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
from ..des.monitor import Counter
from ..hw.disk import Disk
from ..net.links import Link
from ..net.packet import Packet
from ..net.tcp import TcpStream
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
        deliver: t.Callable[[Packet], t.Any],
        rng: Pcg64Stream,
        capsuler: HintCapsuler | None = None,
        mss: int | None = None,
        faults: t.Any | None = None,
        fastpath: t.Any | None = None,
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        self.env = env
        self.index = index
        self.config = config
        self.uplink = uplink
        self._deliver = deliver
        self._rng = rng
        #: Server-side SAIs component (None on a stock PVFS server).
        self.capsuler = capsuler
        #: TCP maximum segment size; None = one coalesced train per strip.
        self.mss = mss
        #: Fault injector (straggler slowdown, transient-failure windows);
        #: None on a healthy cluster.
        self.faults = faults
        #: Coalesced wire fast path (:class:`~repro.net.fastpath.WireFastPath`);
        #: installed by the builder under every fault plan, None only when
        #: ``REPRO_NO_WIRE_FASTPATH`` selects the reference path.  When set,
        #: segment trains bypass ``uplink.transmit``/``deliver`` for the
        #: analytic pipeline — byte-identical timing, ~5x fewer events.
        self.fastpath = fastpath
        #: Span recorder + this server's serve lane (repro.obs); None off.
        self.spans = spans
        self.obs_track = obs_track
        self._streams: dict[int, TcpStream] = {}
        self.disk = Disk(
            env, rate=config.disk_rate, seek=config.disk_seek, rng=rng
        )
        self.strips_served = Counter(f"server{index}_strips")
        self.bytes_served = Counter(f"server{index}_bytes")
        self.cache_hits = Counter(f"server{index}_cache_hits")

    def serve(self, request: StripRequest) -> t.Generator:
        """Handle one strip request end-to-end (run as a process)."""
        if request.server != self.index:
            raise ValueError(
                f"strip for server {request.server} routed to server {self.index}"
            )
        if self._drop_if_offline():
            return
        sid = None
        if self.spans is not None:
            # Concurrent serves on one server legitimately overlap, so
            # the lane uses async (b/e) rendering.
            sid = self.spans.begin(
                "serve",
                "server",
                self.obs_track,
                parent=self.spans.strip_span(request.client, request.strip_id),
                overlapping=True,
                args={"strip": request.strip_id, "size": request.size},
            )
        if self.config.service_overhead > 0:
            yield self.env.timeout(self.config.service_overhead)
        fetch_started = self.env.now
        yield from self._storage_fetch(request.size, request.offset)
        if sid is not None:
            self.spans.add(
                "storage",
                "server",
                self.obs_track,
                start=fetch_started,
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
        self.strips_served.add()
        self.bytes_served.add(request.size)
        stream = self._streams.setdefault(
            request.client, TcpStream(self.index, request.client)
        )
        if self.fastpath is not None:
            for segment in stream.segments_for_strip(packet, self.mss):
                # The IP option's copied flag (Fig. 4) replicates the hint
                # onto every segment, so SrcParser works on any of them.
                yield from self.fastpath.transmit_to_client(
                    self.uplink, segment
                )
        else:
            for segment in stream.segments_for_strip(packet, self.mss):
                yield from self.uplink.transmit(segment, self._deliver)
        if sid is not None:
            self.spans.end(sid)

    #: Size of a write acknowledgement message on the wire.
    ACK_SIZE = 1024

    def serve_write(self, request: StripRequest) -> t.Generator:
        """Absorb one written strip and return a small acknowledgement.

        Writes land in the server's page cache (PVFS servers ack once the
        data is buffered; the flush is asynchronous), so the client-visible
        cost is the buffered-write copy plus the ack round trip.  The ack
        still traverses the full interrupt path on the client — but it is
        tiny and carries no consumable data, which is exactly why the
        paper scopes the locality problem to reads.
        """
        if request.server != self.index:
            raise ValueError(
                f"strip for server {request.server} routed to server {self.index}"
            )
        if not request.is_write:
            raise ValueError("serve_write called with a read strip request")
        if self._drop_if_offline():
            return
        sid = None
        if self.spans is not None:
            sid = self.spans.begin(
                "serve_write",
                "server",
                self.obs_track,
                parent=self.spans.strip_span(request.client, request.strip_id),
                overlapping=True,
                args={"strip": request.strip_id, "size": request.size},
            )
        if self.config.service_overhead > 0:
            yield self.env.timeout(self.config.service_overhead)
        # Buffered write: memory-speed copy into the page cache.
        yield self.env.timeout(request.size / self.config.cache_rate)
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
        self.strips_served.add()
        self.bytes_served.add(request.size)
        if self.fastpath is not None:
            yield from self.fastpath.transmit_to_client(self.uplink, ack)
        else:
            yield from self.uplink.transmit(ack, self._deliver)
        if sid is not None:
            self.spans.end(sid)

    def _drop_if_offline(self) -> bool:
        """Transient-failure check: inside a window, requests vanish.

        The client-side retry watchdog is what recovers them — exactly
        the failure mode a crashed-and-restarting server presents.
        """
        if self.faults is not None and self.faults.server_offline(
            self.index, self.env.now
        ):
            self.faults.requests_dropped.add()
            return True
        return False

    def _storage_fetch(self, nbytes: int, offset: int) -> t.Generator:
        """:meth:`_fetch` plus the straggler slowdown, when one applies.

        The slowdown is charged as extra service time proportional to
        the *measured* fetch duration, so it stretches cache hits and
        disk reads alike — a uniformly slow server, as in the straggler
        literature, not just a slow spindle.
        """
        factor = (
            self.faults.server_slowdown(self.index)
            if self.faults is not None
            else 1.0
        )
        if factor <= 1.0:
            yield from self._fetch(nbytes, offset)
            return
        started = self.env.now
        yield from self._fetch(nbytes, offset)
        yield self.env.timeout((factor - 1.0) * (self.env.now - started))

    def _fetch(self, nbytes: int, offset: int) -> t.Generator:
        """Read ``nbytes`` at ``offset`` from page cache or disk.

        Whether an offset is page-cache-resident is a property of the data
        (keyed deterministically on the offset), not of event order — so
        paired A/B policy runs see identical hit patterns.
        """
        if hash_unit(self.index, offset) < self.config.cache_hit_ratio:
            self.cache_hits.add()
            yield self.env.timeout(nbytes / self.config.cache_rate)
        else:
            yield from self.disk.read(nbytes)
