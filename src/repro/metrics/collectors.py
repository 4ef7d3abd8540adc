"""Metric dataclasses and collection from live cluster components."""

from __future__ import annotations

import dataclasses
import typing as t

from ..hw.cache import Location
from ..units import sum_left

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.builder import Cluster
    from ..cluster.client_node import ClientNode

__all__ = [
    "ClientMetrics",
    "ResilienceMetrics",
    "RunMetrics",
    "collect_client_metrics",
    "collect_resilience_metrics",
]


@dataclasses.dataclass(frozen=True)
class ResilienceMetrics:
    """Fault-injection and recovery counters for one run.

    Collected only when the cluster was built with an active
    :class:`~repro.faults.FaultPlan`; fault-free runs carry ``None`` in
    :attr:`RunMetrics.resilience` and pay nothing.
    """

    #: Transmission attempts lost on links (injected loss).
    packets_dropped: int
    #: Attempts repeated after a loss, across all links.
    retransmits: int
    #: Packets whose IP options a middlebox removed in flight.
    options_stripped: int
    #: Packets whose IP options a middlebox corrupted in flight.
    options_corrupted: int
    #: Packets held back by the reordering middlebox.
    packets_delayed: int
    #: Strip requests swallowed by a server's transient-failure window.
    requests_dropped: int
    #: Strip requests re-submitted by the client retry watchdog.
    strip_retries: int
    #: Completed strips discarded as duplicates of an earlier arrival.
    duplicate_strips: int
    #: Out-of-wire-order segments absorbed by TCP reassembly.
    reorder_events: int
    #: Duplicate TCP segments dropped during reassembly.
    duplicate_segments: int
    #: Interrupts steered by the degraded (hint-less) fallback.
    fallback_steered: int
    #: Data packets that should have carried a SAIs hint but did not.
    unhinted_packets: int
    #: Inbound options fields the driver could not decode.
    parse_errors: int
    #: Decoded hints naming a core the machine does not have.
    hints_out_of_range: int
    #: Bytes that actually crossed the links, retransmissions included.
    raw_wire_bytes: int
    #: Application-observed useful bytes/s (same basis as ``bandwidth``).
    goodput: float
    #: Raw link bytes/s, inflated by every retransmitted attempt.
    raw_bandwidth: float
    #: goodput / raw bandwidth — the efficiency lost to recovery.
    goodput_ratio: float


@dataclasses.dataclass(frozen=True)
class ClientMetrics:
    """Per-client-node measurements over one run."""

    client_index: int
    elapsed: float
    bytes_read: int
    #: Application-observed read bandwidth, bytes/s.
    bandwidth: float
    #: L2 miss rate = misses / accesses (Fig. 6/7 metric).
    l2_miss_rate: float
    #: Machine-wide busy fraction (Fig. 8/9 metric).
    cpu_utilization: float
    #: Total unhalted cycles across cores (Fig. 10/11 metric).
    unhalted_cycles: float
    #: Cache-to-cache strip migrations carried by the interconnect.
    migrations: int
    #: Seconds migrations spent queued for the serialized interconnect.
    migration_wait: float
    #: Strips refetched from DRAM after eviction.
    memory_refetches: int
    #: Consume-location histogram {"local": n, "remote": n, ...}.
    consume_locations: dict[str, int]
    #: Interrupts delivered per core (policy scatter diagnostics).
    interrupts_per_core: tuple[int, ...]
    #: Per-core busy seconds by work category, summed over cores.
    busy_by_category: dict[str, float]
    #: Strips evicted from private caches.
    evictions: int
    #: Segments softirq-processed out of ordinal order (the Flow
    #: Director reordering pathology; structurally 0 under rss).
    out_of_order_segments: int = 0
    #: Duplicate ACKs those out-of-order deliveries elicited.
    dup_acks: int = 0
    #: Holes that reached 3 dup-ACKs (sender-side fast retransmits).
    fast_retransmits: int = 0
    #: Steering-table repoints (Flow Director ATR flow migrations).
    steering_migrations: int = 0
    #: RPS/RFS cross-core softirq handoffs.
    rps_handoffs: int = 0

    @property
    def interrupt_spread(self) -> float:
        """Fraction of cores that handled at least one interrupt."""
        if not self.interrupts_per_core:
            return 0.0
        hit = sum(1 for n in self.interrupts_per_core if n > 0)
        return hit / len(self.interrupts_per_core)


@dataclasses.dataclass(frozen=True)
class RunMetrics:
    """Whole-experiment measurements (aggregates over all client nodes)."""

    policy: str
    elapsed: float
    clients: tuple[ClientMetrics, ...]
    #: Fault/recovery counters; None when the run was fault-free.
    resilience: ResilienceMetrics | None = None

    @property
    def bytes_read(self) -> int:
        return sum(c.bytes_read for c in self.clients)

    @property
    def bandwidth(self) -> float:
        """Aggregate bandwidth over all clients (paper Fig. 12 sums them)."""
        return sum_left(c.bandwidth for c in self.clients)

    @property
    def l2_miss_rate(self) -> float:
        """Access-weighted mean is unavailable post-hoc; clients are
        homogeneous so the plain mean is the right summary."""
        if not self.clients:
            return 0.0
        return sum_left(c.l2_miss_rate for c in self.clients) / len(
            self.clients
        )

    @property
    def cpu_utilization(self) -> float:
        if not self.clients:
            return 0.0
        return sum_left(c.cpu_utilization for c in self.clients) / len(
            self.clients
        )

    @property
    def unhalted_cycles(self) -> float:
        return sum_left(c.unhalted_cycles for c in self.clients)

    @property
    def migrations(self) -> int:
        return sum(c.migrations for c in self.clients)

    @property
    def out_of_order_segments(self) -> int:
        return sum(c.out_of_order_segments for c in self.clients)

    @property
    def dup_acks(self) -> int:
        return sum(c.dup_acks for c in self.clients)

    @property
    def fast_retransmits(self) -> int:
        return sum(c.fast_retransmits for c in self.clients)

    @property
    def steering_migrations(self) -> int:
        return sum(c.steering_migrations for c in self.clients)

    @property
    def rps_handoffs(self) -> int:
        return sum(c.rps_handoffs for c in self.clients)


def collect_client_metrics(
    node: "ClientNode", elapsed: float, bytes_read: int
) -> ClientMetrics:
    """Snapshot one client node's counters after a run."""
    busy_by: dict[str, float] = {}
    for core in node.cores:
        for category, seconds in core.busy_by_category.items():
            busy_by[category] = busy_by.get(category, 0.0) + seconds
    total_busy = sum_left(core.busy_time for core in node.cores)
    utilization = (
        total_busy / (len(node.cores) * elapsed) if elapsed > 0 else 0.0
    )
    return ClientMetrics(
        client_index=node.index,
        elapsed=elapsed,
        bytes_read=bytes_read,
        bandwidth=bytes_read / elapsed if elapsed > 0 else 0.0,
        l2_miss_rate=node.cache.miss_rate(),
        cpu_utilization=utilization,
        unhalted_cycles=sum_left(
            core.unhalted_cycles() for core in node.cores
        ),
        migrations=node.interconnect.migrations,
        migration_wait=node.interconnect.wait_time,
        memory_refetches=(
            node.cache.consume_by_location[Location.MEMORY]
            + node.cache.consume_by_location[Location.ABSENT]
        ),
        consume_locations={
            loc.value: n for loc, n in node.cache.consume_by_location.items()
        },
        interrupts_per_core=tuple(node.ioapic.deliveries),
        busy_by_category=busy_by,
        evictions=node.cache.evictions,
        out_of_order_segments=node.pfs.out_of_order_segments,
        dup_acks=node.pfs.dup_acks,
        fast_retransmits=node.pfs.fast_retransmits,
        steering_migrations=int(getattr(node.policy, "flow_migrations", 0)),
        rps_handoffs=sum(d.steered for d in node.daemons),
    )


def collect_resilience_metrics(
    cluster: "Cluster", elapsed: float, bytes_read: int
) -> ResilienceMetrics:
    """Aggregate fault/recovery counters from every layer after a run."""
    injector = cluster.injector
    if injector is None:
        raise ValueError(
            "collect_resilience_metrics needs a cluster with a fault injector"
        )
    links = [server.uplink for server in cluster.servers]
    links.extend(cluster.client_uplinks)
    retransmits = sum(link.retransmits for link in links)
    raw_wire_bytes = sum(int(link.bytes_sent) for link in links)
    fallback = 0
    unhinted = 0
    parse_errors = 0
    out_of_range = 0
    strip_retries = 0
    duplicate_strips = 0
    reorder_events = 0
    duplicate_segments = 0
    for node in cluster.clients:
        fallback += int(getattr(node.policy, "fallback_events", 0))
        unhinted += sum(d.unhinted for d in node.daemons)
        if node.src_parser is not None:
            parse_errors += node.src_parser.parse_errors
            out_of_range += node.src_parser.hints_out_of_range
        strip_retries += node.pfs.strip_retries
        duplicate_strips += node.pfs.duplicate_strips
        reorder_events += node.pfs.reorder_events
        duplicate_segments += node.pfs.duplicate_segments
    goodput = bytes_read / elapsed if elapsed > 0 else 0.0
    raw_bandwidth = raw_wire_bytes / elapsed if elapsed > 0 else 0.0
    return ResilienceMetrics(
        packets_dropped=injector.packets_dropped,
        retransmits=retransmits,
        options_stripped=injector.options_stripped,
        options_corrupted=injector.options_corrupted,
        packets_delayed=injector.packets_delayed,
        requests_dropped=injector.requests_dropped,
        strip_retries=strip_retries,
        duplicate_strips=duplicate_strips,
        reorder_events=reorder_events,
        duplicate_segments=duplicate_segments,
        fallback_steered=fallback,
        unhinted_packets=unhinted,
        parse_errors=parse_errors,
        hints_out_of_range=out_of_range,
        raw_wire_bytes=raw_wire_bytes,
        goodput=goodput,
        raw_bandwidth=raw_bandwidth,
        goodput_ratio=(
            bytes_read / raw_wire_bytes if raw_wire_bytes > 0 else 0.0
        ),
    )
