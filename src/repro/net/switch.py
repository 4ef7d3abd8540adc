"""The cluster switch: a shared backplane between server and client links.

The paper's Catalyst 4948 is effectively non-blocking at this port count,
but modeling the backplane explicitly lets the ablations create an
oversubscribed fabric and watch the SAIs advantage shrink as the network
becomes the bottleneck (Sec. III's ``TR`` term).
"""

from __future__ import annotations

import typing as t

from ..des import Environment, Resource
from .packet import Packet

__all__ = ["Switch"]


class Switch:
    """Store-and-forward fabric with a finite backplane bandwidth."""

    def __init__(
        self,
        env: Environment,
        backplane_bandwidth: float,
        latency: float = 0.0,
        middlebox: t.Callable[[Packet], tuple[Packet, float]] | None = None,
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        if backplane_bandwidth <= 0:
            raise ValueError(
                f"backplane_bandwidth must be positive, got {backplane_bandwidth}"
            )
        self.env = env
        self.backplane_bandwidth = backplane_bandwidth
        self.latency = latency
        #: In-network hazard hook (``FaultInjector.middlebox``): may
        #: replace the packet (options stripped/corrupted) and return an
        #: extra delivery delay (reordering).  None on a healthy fabric.
        #: :meth:`forward` runs it at fabric departure; the wire fast path
        #: runs it right after :meth:`relay`.
        self.middlebox = middlebox
        self._fabric = Resource(env, capacity=1)
        #: Analytic next-free time of the backplane (fast path only; see
        #: :mod:`repro.net.fastpath`).
        self._fabric_free = 0.0
        #: Span recorder + the fabric's backplane lane (repro.obs); None
        #: when tracing is off.  The fast path records its own spans
        #: (:meth:`relay` has no packet identity).
        self.spans = spans
        self.obs_track = obs_track
        self.bytes_switched = 0
        self.packets_switched = 0

    def relay(self, nbytes: int) -> float:
        """Carry ``nbytes`` across the backplane analytically.

        Closed form of :meth:`forward`'s resource + timeout: arriving now,
        the packet queues behind the backplane's drain time, serializes,
        and departs at the returned instant.  Counters are charged here —
        the per-packet totals match :meth:`forward` at end of run (only
        the charge *instant* differs; nothing samples them mid-run).
        Fast-path use only; the caller applies :attr:`middlebox`.
        """
        start = self._fabric_free
        now = self.env.now
        if start < now:
            start = now
        departure = start + nbytes / self.backplane_bandwidth
        self._fabric_free = departure
        self.bytes_switched += nbytes
        self.packets_switched += 1
        return departure

    def forward(
        self,
        packet: Packet,
        deliver: t.Callable[[Packet], t.Any],
    ) -> t.Generator:
        """Carry ``packet`` across the backplane, then hand it to ``deliver``.

        The caller blocks for backplane occupancy; delivery (plus the port
        latency) is spawned asynchronously so flows pipeline through.
        """
        with self._fabric.request() as req:
            yield req
            granted = self.env.now
            yield self.env.timeout(packet.size / self.backplane_bandwidth)
        self.bytes_switched += packet.size
        self.packets_switched += 1
        if self.spans is not None:
            # (grant, departure) equals the analytic path's
            # (max(free, arrival), + service) by the fastpath-equivalence
            # argument, so both wire paths export the same fabric span.
            self.spans.add(
                "switch",
                "net",
                self.obs_track,
                start=granted,
                end=self.env.now,
                parent=self.spans.strip_span(
                    packet.dst_client, packet.strip_id
                ),
                args={"strip": packet.strip_id, "segment": packet.segment},
            )
        extra_delay = 0.0
        if self.middlebox is not None:
            packet, extra_delay = self.middlebox(packet)

        def _arrive() -> t.Generator:
            delay = self.latency + extra_delay
            if delay > 0:
                yield self.env.timeout(delay)
            result = deliver(packet)
            if result is not None and hasattr(result, "send"):
                yield from result

        self.env.process(_arrive(), quiet=True)
