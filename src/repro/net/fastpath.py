"""The cluster's wire: analytic FIFO pipelines for the shared fabric.

A reply's segments cross three hops on their way to a client: the
server's uplink, the switch backplane and the client's (bonded) NIC wire.
Each hop is a deterministic FIFO server, so its behaviour has a closed
form: if ``free`` is the time the hop last drains, a packet arriving at
``a`` with service time ``s`` departs at::

    depart = max(free, a) + s;  free = depart

This module replays that recurrence in plain arithmetic for the *shared*
hops (switch backplane, client NIC wire).  The sender-side uplink stays a
queue, :meth:`Link.send <repro.net.links.Link.send>` on a
:class:`~repro.des.FixedServiceFifo`, the one serialize/drop/back-off
loop: simultaneous departures on *different* uplinks are ordered by
event-insertion order, and a departure event created at the grant
decision keeps the order a queue per hop gives, where one created at the
request by a recurrence would not (ties across uplinks would then break
differently, reordering the shared fabric's FIFO).  Per segment the
transport is **two** calendar events:

1. the uplink departure, put on the calendar at the wire's grant decision
   (so per-uplink queueing and cross-uplink ties are those of a queue per
   hop), inside which the switch and NIC recurrences advance; and
2. one pooled :meth:`~repro.des.environment.Environment.call_at` callback
   at the NIC wire-completion instant, which runs the NIC's post-wire
   receive half (counters, wire span, ordering tripwire, NAPI, interrupt
   raise).

A lost attempt adds one back-off ``Timeout`` plus another uplink
departure, and a reorder-delayed packet adds one callback (below).

Why this equals a queue per hop (DESIGN.md §8 has the derivation; the
known answers of ``tests/net/test_wire_fastpath.py``, recorded from a
model that queued every hop on its own resource, are its evidence):

* every user of a shared hop goes through the recurrence, and updates
  happen in global uplink-departure order — departures are calendar
  events processed in time order (ties in insertion order, by point 1),
  and the switch/NIC updates ride inside them, so the shared FIFOs serve
  in arrival order;
* the NIC recurrence may be advanced early, at uplink-departure time,
  because switch departures are monotone in update order and the port
  latency is a constant — so NIC *arrival* order equals update order;
* the fault plan's middlebox runs right after :meth:`Switch.relay`
  instead of at fabric departure.  Each of its decisions is
  ``hash_unit(plan seed, site, packet identity)``, which does not depend
  on time, and the fault counters are read only after the run.  The NIC
  arrival is ``fabric_departure + (latency + extra)``, the float
  expression of a delivery delayed by the port latency plus the extra;
* a reorder delay breaks "arrival order equals update order", so a
  delayed packet waits in a per-client heap keyed by arrival time.  One
  callback at its arrival admits every held packet due by then, and an
  undelayed packet first admits every held packet due at or before its
  own arrival, earliest first.  Nothing relayed later can arrive earlier
  than an undelayed packet (fabric departures only increase, the latency
  is constant), so the NIC still admits in arrival order; on equal
  arrivals the delayed packet goes first, as the delivery scheduled
  first would;
* the NIC's counters, span and observers fire at the instant the packet
  is fully off the wire; the switch and middlebox counters are charged
  at relay, which only a run ending inside the fabric's service window
  could see (DESIGN.md §8).

Straggler slowdowns and server-failure windows are folded into the start
instant of each reply inside :class:`~repro.pfs.server.IoServer`.

The cluster builder installs one :class:`WireFastPath` per cluster, under
every fault plan.
"""

from __future__ import annotations

import typing as t
from heapq import heappop, heappush
from itertools import count

from ..des import Environment

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.client_node import ClientNode
    from ..hw.nic import Nic
    from ..net.packet import Packet
    from ..net.switch import Switch
    from .links import Link

__all__ = ["WireFastPath"]


class WireFastPath:
    """Analytic uplink -> switch -> NIC pipeline for one cluster."""

    def __init__(
        self,
        env: Environment,
        switch: "Switch",
        clients: "t.Sequence[ClientNode]",
        spans: t.Any | None = None,
    ) -> None:
        self.env = env
        self.switch = switch
        self._nics: list["Nic"] = [client.nic for client in clients]
        #: Reorder-delayed packets not yet admitted to their client's NIC,
        #: one heap of ``(arrival, relay ordinal, packet)`` per client.
        #: Stays empty unless the fault plan reorders.
        self._held: list[list[tuple[float, int, "Packet"]]] = [
            [] for _ in clients
        ]
        self._relayed = count()
        #: Span recorder (repro.obs); None when tracing is off.  The NIC
        #: wire span is recorded by ``complete_rx``; only the fabric hop
        #: needs recording here, because the analytic
        #: :meth:`Switch.relay` never sees packet identity.
        self.spans = spans

    def _record_fabric_span(self, packet: "Packet", departure: float) -> None:
        switch = self.switch
        self.spans.add(
            "switch",
            "net",
            switch.obs_track,
            start=departure - packet.size / switch.backplane_bandwidth,
            end=departure,
            parent=self.spans.strip_span(packet.dst_client, packet.strip_id),
            args={"strip": packet.strip_id, "segment": packet.segment},
        )

    def transmit_to_client(
        self, link: "Link", packet: "Packet"
    ) -> t.Generator:
        """Send one data/ack packet server->client; blocks the caller for
        uplink queueing + serialization (+ loss back-offs), like
        :meth:`Link.send <repro.net.links.Link.send>`."""
        # After the uplink half, now == uplink departure of the attempt
        # that got through.  (Few locals: a suspended generator's frame
        # lives while the packet queues.)
        yield from link.send(packet)
        switch = self.switch
        fabric_departure = switch.relay(packet.size)
        if self.spans is not None:
            self._record_fabric_span(packet, fabric_departure)
        if switch.middlebox is not None:
            self._through_middlebox(packet, fabric_departure)
            return
        nic = self._nics[packet.dst_client]
        self.env.call_at(
            nic.admit(packet.size, fabric_departure + switch.latency),
            nic.complete_rx,
            packet,
        )

    def _through_middlebox(
        self, packet: "Packet", fabric_departure: float
    ) -> None:
        """Apply the fault plan's middlebox to a relayed packet, then admit
        it to its NIC, or hold it back when the middlebox delays it."""
        switch = self.switch
        packet, extra = switch.middlebox(packet)
        arrival = fabric_departure + (switch.latency + extra)
        client = packet.dst_client
        if extra > 0.0:
            heappush(self._held[client], (arrival, next(self._relayed), packet))
            self.env.call_at(arrival, self._release_due, client)
            return
        self._release(client, arrival)
        nic = self._nics[client]
        self.env.call_at(nic.admit(packet.size, arrival), nic.complete_rx, packet)

    def _release_due(self, client: int) -> None:
        """Arrival callback of a held packet: admit everything due now."""
        self._release(client, self.env.now)

    def _release(self, client: int, until: float) -> None:
        """Admit ``client``'s held packets arriving at or before ``until``,
        earliest first (equal arrivals in relay order)."""
        held = self._held[client]
        nic = self._nics[client]
        call_at = self.env.call_at
        while held and held[0][0] <= until:
            arrival, _, packet = heappop(held)
            call_at(nic.admit(packet.size, arrival), nic.complete_rx, packet)

    def transmit_to_server(
        self,
        link: "Link",
        packet: "Packet",
        arrive: t.Callable[[float], None],
    ) -> t.Generator:
        """Send one write strip client->server; at the uplink departure,
        ``arrive(at)`` hands the server the instant ``at`` the strip
        clears the switch port.  ``packet`` is the strip's data packet: it
        keys the loss and reorder draws and the fabric span."""
        env = self.env
        yield from link.send(packet)
        switch = self.switch
        fabric_departure = switch.relay(packet.size)
        if self.spans is not None:
            self._record_fabric_span(packet, fabric_departure)
        delay = switch.latency
        if switch.middlebox is not None:
            delay += switch.middlebox(packet)[1]
        # The arrival as a delay from now, added back: the float
        # expression of a process started that much later.
        arrive(env.now + ((fabric_departure + delay) - env.now))
