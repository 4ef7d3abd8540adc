"""The live fault-injection engine built from one :class:`FaultPlan`.

One :class:`FaultInjector` is created per cluster (when the config carries
a non-null plan) and consulted from three places:

* each :class:`~repro.net.links.Link` asks its :class:`LinkFaults` adapter
  whether a transmission attempt is lost and how long to back off;
* the switch hop runs :meth:`FaultInjector.middlebox` on every relayed
  packet (the wire runs it right after
  :meth:`~repro.net.switch.Switch.relay`) — option stripping, option
  corruption, and reordering delay all happen "in the middle of the
  network";
* each :class:`~repro.pfs.server.IoServer` asks for its straggler slowdown
  factor and whether it is inside a transient-failure window.

Every per-packet decision is keyed by :func:`repro.rng.hash_unit` over the
packet's identity (flow, strip, segment, attempt) and the plan's seed —
a property of the *packet*, not of event order.  That makes the fault
pattern (a) byte-reproducible regardless of worker count or scheduling,
and (b) paired across baseline/treatment policy runs, the same trick the
server page-cache model uses for hit patterns.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..rng import _stable_hash, hash_unit
from .plan import FaultPlan

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.packet import Packet

__all__ = ["FaultInjector", "LinkFaults"]

# Distinct decision-site salts so e.g. the drop draw and the strip draw
# for the same packet are independent.
_SITE_DROP = 0x11
_SITE_STRIP = 0x22
_SITE_CORRUPT = 0x33
_SITE_CORRUPT_BYTE = 0x34
_SITE_REORDER = 0x44
_SITE_REORDER_DELAY = 0x45


def _packet_key(packet: "Packet") -> tuple[int, int, int, int, int]:
    return packet.flow_identity


class LinkFaults:
    """One link's view of the injector: loss decisions + backoff schedule."""

    def __init__(self, injector: "FaultInjector", name: str) -> None:
        self._injector = injector
        self._site = _stable_hash(name)

    def should_drop(self, packet: "Packet", attempt: int) -> bool:
        """Whether transmission ``attempt`` (0-based) of ``packet`` is lost."""
        injector = self._injector
        plan = injector.plan
        if plan.loss_prob <= 0.0:
            return False
        draw = hash_unit(
            plan.seed, _SITE_DROP, self._site, *_packet_key(packet), attempt
        )
        if draw >= plan.loss_prob:
            return False
        injector.packets_dropped += 1
        return True

    def retransmit_delay(self, attempt: int) -> float:
        """Backoff before re-sending after the ``attempt``-th loss (1-based)."""
        plan = self._injector.plan
        delay = plan.retransmit_timeout * plan.retransmit_backoff ** (attempt - 1)
        return min(delay, plan.retransmit_cap)


class FaultInjector:
    """Deterministic fault decisions plus the counters the metrics read."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._stragglers = frozenset(plan.straggler_servers)
        self._windows: dict[int, list[tuple[float, float]]] = {}
        for server, start, end in plan.server_failure_windows:
            self._windows.setdefault(server, []).append((start, end))
        self.packets_dropped = 0
        self.options_stripped = 0
        self.options_corrupted = 0
        self.packets_delayed = 0
        self.requests_dropped = 0

    # -- link layer -----------------------------------------------------------

    def link_faults(self, name: str) -> LinkFaults | None:
        """The loss adapter for one link; None when the plan never drops
        (keeps the no-loss transmit path identical to the fault-free one)."""
        if self.plan.loss_prob <= 0.0:
            return None
        return LinkFaults(self, name)

    # -- middlebox (runs on the switch) ---------------------------------------

    def middlebox(self, packet: "Packet") -> tuple["Packet", float]:
        """Apply in-network hazards to one forwarded packet.

        Returns the (possibly replaced) packet and an extra delivery
        delay.  The original packet object is never mutated — a lost
        copy upstream may still be retransmitted.
        """
        plan = self.plan
        key = _packet_key(packet)
        extra_delay = 0.0
        if plan.reorder_prob > 0.0 and (
            hash_unit(plan.seed, _SITE_REORDER, *key) < plan.reorder_prob
        ):
            extra_delay = plan.reorder_window * hash_unit(
                plan.seed, _SITE_REORDER_DELAY, *key
            )
            self.packets_delayed += 1
        if packet.options:
            if plan.strip_option_prob > 0.0 and (
                hash_unit(plan.seed, _SITE_STRIP, *key) < plan.strip_option_prob
            ):
                packet = dataclasses.replace(packet, options=b"")
                self.options_stripped += 1
            elif plan.corrupt_prob > 0.0 and (
                hash_unit(plan.seed, _SITE_CORRUPT, *key) < plan.corrupt_prob
            ):
                garbled = int(
                    hash_unit(plan.seed, _SITE_CORRUPT_BYTE, *key) * 256
                )
                packet = dataclasses.replace(
                    packet, options=bytes([garbled]) + packet.options[1:]
                )
                self.options_corrupted += 1
        return packet, extra_delay

    # -- servers --------------------------------------------------------------

    def server_slowdown(self, server_index: int) -> float:
        """Storage service-time multiplier for one server (1.0 = healthy)."""
        if server_index in self._stragglers:
            return self.plan.straggler_slowdown
        return 1.0

    def server_offline(self, server_index: int, now: float) -> bool:
        """Whether ``server_index`` is inside a transient-failure window."""
        for start, end in self._windows.get(server_index, ()):
            if start <= now < end:
                return True
        return False

    def count_request_dropped(self, _: object) -> None:
        """Count one request lost to a failure window (a ``call_at`` callback)."""
        self.requests_dropped += 1
