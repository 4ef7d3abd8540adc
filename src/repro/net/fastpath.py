"""Coalesced wire fast path: analytic FIFO pipelines for a healthy fabric.

The slow (general) data path charges every segment one full event
round-trip per hop: a wire-``Resource`` grant, a serialization ``Timeout``
and a spawned ``_arrive`` process at the server uplink, the switch
backplane and the client NIC — ~11 calendar events per segment before the
interrupt is even raised.  On a *fault-free* fabric every one of those hops
is a deterministic FIFO server, so its behaviour has a closed form: if
``free`` is the time the hop last drains, a packet arriving at ``a`` with
service time ``s`` departs at::

    depart = max(free, a) + s;  free = depart

This module replays that recurrence in plain arithmetic for the *shared*
hops (switch backplane, client NIC wire).  The sender-side uplink keeps
its real ``Resource`` + serialization ``Timeout``: simultaneous departures
on *different* uplinks are ordered by event-insertion order, and only the
resource machinery reproduces the slow path's insertion points exactly
(an analytic uplink would assign its departure event at *request* time,
the resource path at *grant* time — ties across uplinks would then break
differently, reordering the shared fabric's FIFO).  Per segment the
transport is **three** calendar events instead of ~11:

1. the uplink wire grant (unchanged resource machinery, so per-uplink
   queueing and cross-uplink ties are bit-for-bit the slow path's);
2. the sender's serialization ``Timeout`` to the uplink departure, inside
   which the switch and NIC recurrences advance; and
3. one pooled :meth:`~repro.des.environment.Environment.call_at` callback
   at the NIC wire-completion instant, which runs the NIC's post-wire
   receive half (counters, tracer, ordering tripwire, NAPI, interrupt
   raise) at exactly the time the slow path would have.

Why this is exact (see DESIGN.md for the full argument):

* every user of a fast-path hop goes through the recurrence, and updates
  happen in global uplink-departure order — departures are calendar
  events processed in time order (ties in slow-path insertion order, by
  point 1), and the switch/NIC updates ride inside them, so the shared
  FIFOs serve in exactly the slow path's order;
* the NIC recurrence may be advanced early, at uplink-departure time,
  because switch departures are monotone in update order and the port
  latency is a constant — so NIC *arrival* order equals update order;
* all counters/observers fire at the same simulated instants as before.

The fast path is installed by the cluster builder **only when no fault
plan is active** (no injector, hence no loss, no middlebox, no straggler):
fault machinery needs the per-attempt resource path, which stays exactly
as it was.  ``REPRO_NO_WIRE_FASTPATH=1`` disables the fast path for A/B
equivalence testing (``tests/net/test_wire_fastpath.py``).
"""

from __future__ import annotations

import os
import typing as t

from ..des import Environment

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.client_node import ClientNode
    from ..hw.nic import Nic
    from ..net.packet import Packet
    from ..net.switch import Switch
    from .links import Link

__all__ = ["WireFastPath", "fast_wire_enabled"]


def fast_wire_enabled() -> bool:
    """False when ``REPRO_NO_WIRE_FASTPATH`` is set (A/B testing knob)."""
    return not os.environ.get("REPRO_NO_WIRE_FASTPATH")


def serialize_out(env: Environment, link: "Link", nbytes: int) -> t.Generator:
    """The sender-side uplink half shared by every fast-path transmit:
    wire-resource grant, serialization timeout, counters at departure."""
    with link._wire.request() as req:
        yield req
        yield env.timeout(link.serialization_time(nbytes))
    link.bytes_sent.add(nbytes)
    link.packets_sent.add()


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
        #: Span recorder (repro.obs); None when tracing is off.  The NIC
        #: wire span is recorded by ``complete_rx`` (identically on both
        #: paths); only the fabric hop needs recording here, because the
        #: analytic :meth:`Switch.relay` never sees packet identity.
        self.spans = spans

    def _record_fabric_span(
        self, client: int, strip_id: int, segment: int, size: int, departure: float
    ) -> None:
        switch = self.switch
        self.spans.add(
            "switch",
            "net",
            switch.obs_track,
            start=departure - size / switch.backplane_bandwidth,
            end=departure,
            parent=self.spans.strip_span(client, strip_id),
            args={"strip": strip_id, "segment": segment},
        )

    def transmit_to_client(
        self, link: "Link", packet: "Packet"
    ) -> t.Generator:
        """Send one data/ack packet server->client; blocks the caller for
        uplink queueing + serialization, exactly like ``Link.transmit``."""
        env = self.env
        # After the shared uplink half, now == uplink departure: the link
        # counters were charged at the same instant the resource-based
        # path charges them.
        yield from serialize_out(env, link, packet.size)
        switch = self.switch
        fabric_departure = switch.relay(packet.size)
        if self.spans is not None:
            self._record_fabric_span(
                packet.dst_client,
                packet.strip_id,
                packet.segment,
                packet.size,
                fabric_departure,
            )
        nic = self._nics[packet.dst_client]
        done = nic.admit(packet.size, fabric_departure + switch.latency)
        env.call_at(done, nic.complete_rx, packet)

    def transmit_to_server(
        self,
        link: "Link",
        size: int,
        arrival: t.Callable[[], t.Generator],
        request: t.Any | None = None,
    ) -> t.Generator:
        """Send one write strip client->server; ``arrival()`` builds the
        server-side generator (``serve_write``), spawned at the instant
        the strip clears the switch port.  ``request`` (the originating
        :class:`~repro.pfs.request.StripRequest`) is only consulted for
        span attribution."""
        env = self.env
        yield from serialize_out(env, link, size)
        switch = self.switch
        fabric_departure = switch.relay(size)
        if self.spans is not None and request is not None:
            self._record_fabric_span(
                request.client,
                request.strip_id,
                0,
                size,
                fabric_departure,
            )
        env.process(
            arrival(),
            quiet=True,
            start_delay=(fabric_departure + switch.latency) - env.now,
        )
