"""Assemble a whole cluster (clients + servers + fabric) from a config."""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import ClusterConfig
from ..core.policy import create_policy
from ..core.sais import HintCapsuler
from ..des import Environment
from ..faults.injector import FaultInjector
from ..net.fastpath import WireFastPath
from ..net.links import Link
from ..net.packet import Packet
from ..net.switch import Switch
from ..obs.registry import MetricsRegistry, register_cluster
from ..pfs.layout import StripeLayout
from ..pfs.request import StripRequest
from ..pfs.server import IoServer
from ..rng import RngFactory
from .client_node import ClientNode

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.spans import SpanRecorder

__all__ = ["Cluster", "build_cluster"]


@dataclasses.dataclass
class Cluster:
    """A fully-wired simulated cluster, ready to run a workload."""

    env: Environment
    config: ClusterConfig
    clients: list[ClientNode]
    servers: list[IoServer]
    switch: Switch
    layout: StripeLayout
    rngs: RngFactory
    #: Fault injector holding the cluster-wide fault counters; None when
    #: no (effective) fault plan is configured.
    injector: FaultInjector | None = None
    #: Client transmit links (write path); kept for retransmit accounting.
    client_uplinks: list[Link] = dataclasses.field(default_factory=list)
    #: Causal span recorder (repro.obs); None unless the caller asked for
    #: tracing — the zero-cost-off guarantee hinges on this being None.
    spans: "SpanRecorder | None" = None
    #: Metrics registry over every component's instruments, filled by
    #: :func:`~repro.obs.registry.register_cluster` (one dict insert per
    #: name at build time; readers run only when a name is read).
    metrics: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)


def build_cluster(
    config: ClusterConfig, spans: "SpanRecorder | None" = None
) -> Cluster:
    """Build every component of one experiment point and wire the paths.

    Data path: ``IoServer`` reply -> ``WireFastPath`` (server uplink
    ``Link`` -> switch -> destination client's NIC) -> I/O APIC (policy)
    -> softirq -> PFS client.

    Request path: client ``PfsClient.issue`` -> ``IoServer.accept`` with
    the arrival instant one fabric latency later (request messages are a
    few hundred bytes; only their latency is modeled).
    """
    env = Environment()
    rngs = RngFactory(config.seed)
    layout = StripeLayout(config.strip_size, config.n_servers)
    net = config.network

    fabric_track = None
    if spans is not None:
        from ..obs.spans import FABRIC_PID, SERVE_TID, Track, server_pid

        spans.env = env
        fabric_track = Track(FABRIC_PID, 0)
        spans.label_track(fabric_track, "switch", "backplane")

    # A null plan (every probability zero, no stragglers) builds exactly
    # the fault-free cluster: no injector, no watchdogs, no middlebox.
    injector: FaultInjector | None = None
    if config.faults is not None and not config.faults.is_null:
        injector = FaultInjector(config.faults)

    switch = Switch(
        env,
        backplane_bandwidth=net.switch_bandwidth,
        latency=net.latency,
        middlebox=injector.middlebox if injector is not None else None,
        obs_track=fabric_track,
    )

    # Every client's route toward the I/O servers.  It reads ``servers``,
    # ``client_uplinks`` and ``fastpath``, which are built below, before
    # the environment runs.
    servers: list[IoServer] = []
    client_uplinks: list[Link] = []

    def submit(request: StripRequest) -> None:
        server = servers[request.server]

        if not request.is_write:
            # Request message: one fabric traversal of latency; its few
            # hundred bytes of serialization are negligible next to the
            # data path and are folded into the latency.
            server.accept(request, env.now + net.latency)
            return

        # The data strip serializes out the client NIC, crosses the
        # switch, and is absorbed by the server, which acks back over the
        # normal return path.
        data = Packet(
            size=request.size,
            src_server=request.server,
            dst_client=request.client,
            request_id=request.request_id,
            strip_id=request.strip_id,
        )
        env.process(
            fastpath.transmit_to_server(
                client_uplinks[request.client],
                data,
                lambda at: server.accept(request, at),
            ),
            quiet=True,
        )

    clients: list[ClientNode] = []
    for client_index in range(config.n_clients):
        # Each client programs its own APIC: policies hold per-client state
        # (round-robin counters, irqbalance assignments).
        policy = create_policy(config.policy)
        if injector is not None:
            # Option-stripping middleboxes leave SAIs hint-less for some
            # packets; the policy steers those round-robin instead of
            # raising (graceful degradation, counted in fallback_events).
            policy.enable_degraded_fallback()
        clients.append(
            ClientNode(
                env,
                client_index,
                config,
                policy,
                layout,
                submit,
                faults=injector,
                spans=spans,
            )
        )

    sais_enabled = clients[0].policy.requires_hints

    # The wire: an exact analytic pipeline under every fault plan (loss
    # rides Link.send, the middlebox runs at relay time, and reordered
    # packets wait in a per-client heap; see repro.net.fastpath).
    fastpath = WireFastPath(env, switch, clients, spans=spans)

    for server_index in range(config.n_servers):
        server_track = None
        if spans is not None:
            server_track = Track(server_pid(server_index), SERVE_TID)
            spans.label_track(server_track, f"server{server_index}", "serve")
        uplink_name = f"server{server_index}_uplink"
        uplink = Link(
            env,
            bandwidth=config.server.nic_bandwidth,
            framing_overhead=net.framing_overhead,
            faults=(
                injector.link_faults(uplink_name)
                if injector is not None
                else None
            ),
        )
        servers.append(
            IoServer(
                env,
                index=server_index,
                config=config.server,
                uplink=uplink,
                fastpath=fastpath,
                rng=rngs.stream(f"server{server_index}"),
                capsuler=HintCapsuler() if sais_enabled else None,
                mss=net.mss,
                faults=injector,
                spans=spans,
                obs_track=server_track,
            )
        )

    # Client transmit side, used by the write path (write strips carry the
    # data *out* through the client's bonded ports).
    client_uplinks.extend(
        Link(
            env,
            bandwidth=config.client.nic_bandwidth,
            framing_overhead=net.framing_overhead,
            faults=(
                injector.link_faults(f"client{idx}_uplink")
                if injector is not None
                else None
            ),
        )
        for idx in range(config.n_clients)
    )

    cluster = Cluster(
        env=env,
        config=config,
        clients=clients,
        servers=servers,
        switch=switch,
        layout=layout,
        rngs=rngs,
        injector=injector,
        client_uplinks=client_uplinks,
        spans=spans,
    )
    register_cluster(cluster.metrics, cluster)
    return cluster
