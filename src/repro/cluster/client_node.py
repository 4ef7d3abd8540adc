"""One fully-assembled I/O client machine.

Owns every client-side hardware and kernel component and implements the
application-visible read path:

* ``pfs.issue(...)`` — fan a read out to the servers (with the SAIs hint
  when the policy requires it);
* ``merge_strip(...)`` — the consumer-side copy of one arrived strip,
  charging the local-copy / cache-to-cache-migration / DRAM-refetch cost
  depending on where interrupt scheduling left the data;
* ``compute(...)`` — the IOR encrypt phase on the consumer core.
"""

from __future__ import annotations

import typing as t

from ..config import ClusterConfig
from ..core.policy import InterruptSchedulingPolicy
from ..core.sais import HintMessager, IMComposer, SrcParser
from ..des import Environment
from ..hw.apic import IoApic
from ..hw.cache import CacheSystem, Location
from ..hw.core import APP_PRIORITY, Core
from ..hw.interconnect import InterconnectBus
from ..hw.nic import Nic
from ..kernel.process import ProcessTable
from ..kernel.softirq import SoftirqDaemon
from ..pfs.client import ArrivedStrip, PfsClient
from ..pfs.layout import StripeLayout
from ..pfs.request import StripRequest

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

__all__ = ["ClientNode"]


class ClientNode:
    """A client machine wired for one interrupt-scheduling policy."""

    def __init__(
        self,
        env: Environment,
        index: int,
        config: ClusterConfig,
        policy: InterruptSchedulingPolicy,
        layout: StripeLayout,
        submit: t.Callable[[StripRequest], None],
        faults: "FaultInjector | None" = None,
        spans: t.Any | None = None,
    ) -> None:
        self.env = env
        self.index = index
        self.config = config
        self.policy = policy
        client_cfg = config.client
        costs = config.costs
        self.costs = costs
        #: Optional causal span recorder (repro.obs); None = zero cost.
        self.spans = spans
        pfs_track = nic_track = apic_track = bus_track = None
        core_tracks: list[t.Any] = [None] * client_cfg.n_cores
        if spans is not None:
            from ..obs.spans import (
                APIC_TID,
                BUS_TID,
                NIC_TID,
                PFS_TID,
                Track,
                client_pid,
            )

            pid = client_pid(index)
            name = f"client{index}"
            pfs_track = Track(pid, PFS_TID)
            nic_track = Track(pid, NIC_TID)
            apic_track = Track(pid, APIC_TID)
            bus_track = Track(pid, BUS_TID)
            core_tracks = [Track(pid, i) for i in range(client_cfg.n_cores)]
            for i, track in enumerate(core_tracks):
                spans.label_track(track, name, f"core{i}")
            spans.label_track(pfs_track, name, "pfs")
            spans.label_track(nic_track, name, "nic-wire")
            spans.label_track(apic_track, name, "apic")
            spans.label_track(bus_track, name, "interconnect")
        self._core_tracks = core_tracks
        self._bus_track = bus_track

        # Built in dependency order, each part handed everything it calls:
        # cores, cache, bus, PFS client, the softirq daemons (the only parts
        # that schedule anything: their own process starts), then the I/O
        # APIC that delivers into the daemons and the NIC that raises on it.
        self.cores = [
            Core(env, i, client_cfg.clock_hz) for i in range(client_cfg.n_cores)
        ]
        self.cache = CacheSystem(
            n_cores=client_cfg.n_cores,
            l2_bytes=client_cfg.l2_bytes,
            strip_size=config.strip_size,
        )
        self.interconnect = InterconnectBus(env, costs)
        self.processes = ProcessTable(client_cfg.n_cores)

        # SAIs components exist only when the policy consumes hints; a
        # conventional policy runs on a completely stock stack.
        sais = policy.requires_hints
        self.hint_messager = HintMessager() if sais else None
        # The parser knows the core count, so a corrupted option that
        # decodes out of range is rejected at the driver (and counted)
        # instead of crashing the I/O APIC.
        self.src_parser = (
            SrcParser(n_cores=client_cfg.n_cores) if sais else None
        )
        self.im_composer = IMComposer() if sais else None

        # The route toward the I/O servers.
        self._submit = submit
        self.pfs = PfsClient(
            env,
            client_index=index,
            layout=layout,
            submit=self._dispatch,
            hint_messager=self.hint_messager,
            plan=faults.plan if faults else None,
            spans=spans,
            obs_track=pfs_track,
        )
        # Any policy consulting the kernel's notion of "where does this
        # request's process run now" (source_aware_process, rps_rfs,
        # rdma_zerointr) gets the live locator.
        locator_hook = getattr(policy, "set_process_locator", None)
        if locator_hook is not None:
            locator_hook(self.pfs.locate_request)

        # RPS/RFS handoffs address sibling daemons by core index; the list
        # fills as the daemons are built.
        self.daemons: list[SoftirqDaemon] = []
        for core in self.cores:
            self.daemons.append(
                SoftirqDaemon(
                    env,
                    core,
                    self.cache,
                    costs,
                    self.pfs,
                    self.interconnect,
                    self.daemons,
                    spans=spans,
                    obs_track=core_tracks[core.index],
                )
            )
        self.ioapic = IoApic(
            env,
            self.cores,
            policy,
            [daemon.enqueue for daemon in self.daemons],
            spans=spans,
            obs_track=apic_track,
        )
        self.nic = Nic(
            env,
            bandwidth=client_cfg.nic_bandwidth,
            ioapic=self.ioapic,
            framing_overhead=config.network.framing_overhead,
            driver_hook=self.src_parser.parse if self.src_parser else None,
            composer=self.im_composer.compose if self.im_composer else None,
            napi=client_cfg.napi,
            napi_budget=client_cfg.napi_budget,
            rx_observer=self.pfs.observe_wire,
            # RDMA-style bypass: the NIC places completions directly and
            # never raises an interrupt — no APIC, no softirq.
            zero_interrupt_sink=(
                self._rdma_place if policy.interrupt_free else None
            ),
            spans=spans,
            obs_track=nic_track,
        )

    # -- wiring -------------------------------------------------------------

    def _dispatch(self, request: StripRequest) -> None:
        if request.issuing_core is not None:
            # ATR-style TX sampling: steering hardware that watches
            # outbound traffic (flow_director) learns flow -> core here.
            self.policy.observe_tx(request.server, request.issuing_core)
        self._submit(request)

    def _rdma_place(self, packet) -> None:
        """Zero-interrupt completion: DMA the payload where it belongs.

        Called by the NIC instead of raising an interrupt.  The strip
        lands directly in the *consumer's* cache (DDIO into the right
        LLC slice), so the merge is always a local copy — the paper's
        entire migration tax disappears along with the interrupts.  The
        PFS client stamps the completing instant as the strip's
        "handled" time.
        """
        target = self.policy.placement_core(packet, len(self.cores))
        outstanding = self.pfs.segment_arrived(packet, target)
        if outstanding is not None and packet.carries_data:
            self.cache.install(target, packet.strip_id)

    # -- application-visible read path ----------------------------------------

    def issue_request(
        self, offset: int, size: int, core_index: int, write: bool = False
    ):
        """Issue one read/write from a process pinned on ``core_index``.

        Returns a generator; the caller pays the issue cost on its core and
        receives the :class:`~repro.pfs.client.OutstandingRequest`.
        """
        core = self.cores[core_index]
        yield from core.run(
            self.costs.request_issue_cost, "issue", APP_PRIORITY
        )
        return self.pfs.issue(offset, size, core_index, write=write)

    def merge_strip(self, core_index: int, strip: ArrivedStrip) -> t.Generator:
        """Copy one arrived strip into the application buffer.

        The cost depends on where interrupt scheduling left the data:

        * resident locally — a cheap cache-hot copy;
        * in a remote core's cache — the consumer stalls for the
          cache-to-cache migration, serialized on the interconnect bus
          (the paper's ``M`` and the heart of the whole effect);
        * evicted to DRAM — a refetch at ``mem_fetch_rate``, serialized on
          the same interconnect bus.
        """
        core = self.cores[core_index]
        spans = self.spans
        merge_sid = None
        merge_started = 0.0
        transfer_span: tuple[str, float] | None = None
        grant = core.acquire(APP_PRIORITY)
        if grant is not None:
            yield grant
        try:
            if spans is not None:
                # Post-grant on the consumer core's serialized lane.
                merge_started = self.env.now
                merge_sid = spans.begin(
                    "merge",
                    "app",
                    self._core_tracks[core_index],
                    parent=spans.strip_span(self.index, strip.token),
                    args={"strip": strip.token, "handled_on": strip.handled_on},
                )
            location = self.cache.consume(core_index, strip.token)
            if location is Location.LOCAL:
                yield core.run_locked(
                    strip.size / self.costs.local_copy_rate, "copy"
                )
            else:
                # REMOTE: dirty cache-to-cache migration (the paper's M) —
                # at the shared-L3 rate when the handling core shares the
                # consumer's socket, at the HyperTransport rate otherwise.
                # MEMORY/ABSENT: demand-miss refetch through DRAM.  All of
                # them ride the serialized fill path (Sec. III-A: "only
                # one strip migration can happen at any time").  While
                # *queued* for the bus the consumer's stall overlaps other
                # transfers (idle); the granted transfer itself stalls the
                # core (unhalted).
                if location is Location.REMOTE:
                    client_cfg = self.config.client
                    same_socket = client_cfg.socket_of(
                        strip.handled_on
                    ) == client_cfg.socket_of(core_index)
                    rate = (
                        self.costs.intra_socket_c2c_rate
                        if same_socket
                        else self.costs.c2c_rate
                    )
                    category = "migration"
                else:
                    rate = self.costs.mem_fetch_rate
                    category = "memory_fetch"
                granted_at = yield from self.interconnect.transfer(
                    strip.size, rate, core=core, category=category
                )
                if spans is not None:
                    transfer_span = (category, granted_at)
        finally:
            core.release()
        if spans is not None:
            strip_sid = spans.strip_span(self.index, strip.token)
            if transfer_span is not None:
                # The granted transfer on the serialized fill path — one
                # "X" slice per migration/refetch on the bus lane.
                category, granted_at = transfer_span
                spans.add(
                    category,
                    "hw",
                    self._bus_track,
                    start=granted_at,
                    end=self.env.now,
                    parent=strip_sid,
                    args={"strip": strip.token, "from": strip.handled_on},
                )
            spans.end(
                merge_sid, args={"location": location.value}
            )
            if strip_sid is not None:
                spans.end_if_open(strip_sid)
            if location is Location.REMOTE:
                handled = spans.handled_span(self.index, strip.token)
                if handled is not None:
                    # Migration edge: the handling core's softirq span ->
                    # this consumer's merge span.
                    src_sid, src_ts, _src_core = handled
                    spans.flow(
                        "migration",
                        "migration",
                        src_sid,
                        src_ts,
                        merge_sid,
                        merge_started,
                    )
        return location

    def compute(self, core_index: int, nbytes: int) -> t.Generator:
        """The IOR added compute phase: encrypt the merged request buffer.

        Runs in strip-sized chunks, handing the core on at the first chunk
        end after another claim, so that softirq work (priority 0) is
        delayed by at most one chunk — approximating Linux, where softirqs
        preempt user code at interrupt return rather than waiting out a
        multi-millisecond compute burst.  Uncontended chunks run as one
        train (:meth:`~repro.hw.core.Core.run_chunks`).
        """
        core = self.cores[core_index]
        chunk = self.config.strip_size
        rate = self.costs.encrypt_rate
        left = nbytes
        while left > 0:
            grant = core.acquire(APP_PRIORITY)
            if grant is not None:
                yield grant
            try:
                left = yield core.run_chunks(left, chunk, rate, "compute")
            finally:
                core.release()
        self.cache.compute_pass(core_index, nbytes)

    # -- accounting -----------------------------------------------------------

    def register_metrics(self, registry: t.Any) -> None:
        """Expose this node's instruments under ``client<i>.*``."""
        prefix = f"client{self.index}"
        for core in self.cores:
            core.register_metrics(registry, f"{prefix}.core{core.index}")
        self.interconnect.register_metrics(registry, f"{prefix}.interconnect")
        for daemon in self.daemons:
            daemon.register_metrics(
                registry, f"{prefix}.softirq{daemon.core.index}"
            )
        registry.register(
            f"{prefix}.nic.bytes_received", lambda: self.nic.bytes_received
        )
        registry.register(
            f"{prefix}.nic.packets_received", lambda: self.nic.packets_received
        )
        registry.register(
            f"{prefix}.nic.interrupts_raised", lambda: self.nic.interrupts_raised
        )
        registry.register(f"{prefix}.nic.busy_time", lambda: self.nic.busy_time)
        registry.register(
            f"{prefix}.ioapic.interrupts",
            lambda: sum(self.ioapic.deliveries),
        )
        registry.register(
            f"{prefix}.pfs.requests_issued", lambda: self.pfs.requests_issued
        )
        registry.register(
            f"{prefix}.pfs.strips_requested", lambda: self.pfs.strips_requested
        )
        registry.register(
            f"{prefix}.pfs.bytes_requested", lambda: self.pfs.bytes_requested
        )
        registry.register(
            f"{prefix}.pfs.strip_retries", lambda: self.pfs.strip_retries
        )
        registry.register(
            f"{prefix}.tcp.out_of_order_segments",
            lambda: self.pfs.out_of_order_segments,
        )
        registry.register(f"{prefix}.tcp.dup_acks", lambda: self.pfs.dup_acks)
        registry.register(
            f"{prefix}.tcp.fast_retransmits", lambda: self.pfs.fast_retransmits
        )
        registry.register(
            f"{prefix}.steering.flow_migrations",
            lambda: getattr(self.policy, "flow_migrations", 0),
        )
        registry.register(f"{prefix}.cache.miss_rate", self.cache.miss_rate)
        registry.register(
            f"{prefix}.cache.evictions", lambda: self.cache.evictions
        )
