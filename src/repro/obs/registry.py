"""A metrics registry: one dotted namespace over a cluster's instruments.

Components keep their counts as plain numeric attributes (``link.bytes_sent``,
``nic.interrupts_raised``) and one ``busy_time`` per shared resource (a
link, disk or bus reports its queue's
:attr:`repro.des.FixedServiceFifo.busy_time`); post-run records are frozen
dataclasses (:class:`~repro.metrics.collectors.ResilienceMetrics`).  The
:class:`MetricsRegistry` maps each dotted name (``server3.disk.busy_time``)
to a zero-argument reader and calls it when the name is read.

The whole namespace is declared here, in the reading tables of
:func:`register_cluster`: one table per owner (the event loop, the
switch, a server, a client, a core, a softirq daemon, a client uplink)
of ``(name, getter)`` rows, built once at import.  ``build_cluster`` calls
:func:`register_cluster` once, which binds each getter to its own
component with :func:`functools.partial` — a dict insert per name at
build time, no per-event cost.  perfbench reads its exact counts
(``des.events_processed`` and the rest) one name at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import typing as t

from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.builder import Cluster

__all__ = ["MetricsRegistry", "register_cluster"]


class MetricsRegistry:
    """Named access to every instrument in one cluster."""

    def __init__(self) -> None:
        self._readers: dict[str, t.Callable[[], float]] = {}

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._readers))

    def register(self, name: str, read: t.Callable[[], float]) -> None:
        """Expose ``read()`` (called at read time) under ``name``."""
        if name in self._readers:
            raise SimulationError(f"metric {name!r} registered twice")
        self._readers[name] = read

    def ingest_dataclass(self, prefix: str, record: t.Any) -> None:
        """Register every numeric field of a (frozen) dataclass instance.

        Values are captured at ingest time — right for post-run records
        like ``ResilienceMetrics``.
        """
        if not dataclasses.is_dataclass(record):
            raise SimulationError(
                f"ingest_dataclass needs a dataclass, got {type(record).__name__}"
            )
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            frozen = float(value)
            self.register(f"{prefix}.{field.name}", lambda v=frozen: v)

    def read(self, name: str) -> float:
        """Current value of one metric."""
        try:
            read = self._readers[name]
        except KeyError:
            raise SimulationError(f"unknown metric {name!r}") from None
        return read()


_get = operator.attrgetter

# ``(name, getter)`` rows per owner: ``getter(owner)`` is the reading of
# ``<owner prefix>.<name>``.  Owners are components, never the cluster:
# a reader bound to the cluster would put the registry in a reference
# cycle, and it would outlive its cluster until the next full collection.

#: ``des.*``: the cluster's :class:`~repro.des.Environment`.
_DES = (("events_processed", _get("events_processed")),)
#: ``switch.*``: the fabric's :class:`~repro.net.switch.Switch`.
_SWITCH = (
    ("bytes", _get("bytes_switched")),
    ("packets", _get("packets_switched")),
)
#: ``server<i>.*``: an :class:`~repro.pfs.server.IoServer`.
_SERVER = (
    ("strips_served", _get("strips_served")),
    ("bytes_served", _get("bytes_served")),
    ("cache_hits", _get("cache_hits")),
    ("disk.busy_time", _get("disk.busy_time")),
    ("uplink.busy_time", _get("uplink.busy_time")),
)
#: ``client<i>.*``: a :class:`~repro.cluster.client_node.ClientNode`.
_CLIENT = (
    ("interconnect.migrations", _get("interconnect.migrations")),
    ("interconnect.signals", _get("interconnect.signals")),
    ("interconnect.bytes_moved", _get("interconnect.bytes_moved")),
    ("interconnect.wait_time", _get("interconnect.wait_time")),
    ("interconnect.busy_time", _get("interconnect.busy_time")),
    ("nic.bytes_received", _get("nic.bytes_received")),
    ("nic.packets_received", _get("nic.packets_received")),
    ("nic.interrupts_raised", _get("nic.interrupts_raised")),
    ("nic.busy_time", _get("nic.busy_time")),
    ("pfs.requests_issued", _get("pfs.requests_issued")),
    ("pfs.strips_requested", _get("pfs.strips_requested")),
    ("pfs.bytes_requested", _get("pfs.bytes_requested")),
    ("pfs.strip_retries", _get("pfs.strip_retries")),
    ("tcp.out_of_order_segments", _get("pfs.out_of_order_segments")),
    ("tcp.dup_acks", _get("pfs.dup_acks")),
    ("tcp.fast_retransmits", _get("pfs.fast_retransmits")),
    ("cache.evictions", _get("cache.evictions")),
    ("cache.miss_rate", lambda client: client.cache.miss_rate()),
    (
        "steering.flow_migrations",
        lambda client: getattr(client.policy, "flow_migrations", 0),
    ),
)
#: ``client<i>.core<j>.*``: a :class:`~repro.hw.core.Core`.
_CORE = (
    ("busy_time", _get("busy_time")),
    ("unhalted_cycles", operator.methodcaller("unhalted_cycles")),
    ("run_queue", _get("run_queue_length")),
)
#: ``client<i>.softirq<j>.*``: a :class:`~repro.kernel.softirq.SoftirqDaemon`.
_SOFTIRQ = (
    ("handled", _get("handled")),
    ("steered", _get("steered")),
)
#: ``client<i>.uplink.*``: a client's transmit :class:`~repro.net.links.Link`.
_UPLINK = (("busy_time", _get("busy_time")),)


def _bind(
    registry: MetricsRegistry,
    prefix: str,
    table: tuple[tuple[str, t.Callable[[t.Any], float]], ...],
    owner: t.Any,
) -> None:
    for name, getter in table:
        registry.register(prefix + name, functools.partial(getter, owner))


def register_cluster(registry: MetricsRegistry, cluster: "Cluster") -> None:
    """Register every reading of a built cluster, each bound to its owner."""
    _bind(registry, "des.", _DES, cluster.env)
    _bind(registry, "switch.", _SWITCH, cluster.switch)
    for server in cluster.servers:
        _bind(registry, f"server{server.index}.", _SERVER, server)
    for client in cluster.clients:
        prefix = f"client{client.index}."
        _bind(registry, prefix, _CLIENT, client)
        for core in client.cores:
            _bind(registry, f"{prefix}core{core.index}.", _CORE, core)
        for daemon in client.daemons:
            index = daemon.core.index
            _bind(registry, f"{prefix}softirq{index}.", _SOFTIRQ, daemon)
    for index, uplink in enumerate(cluster.client_uplinks):
        _bind(registry, f"client{index}.uplink.", _UPLINK, uplink)
