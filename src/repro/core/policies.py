"""The interrupt-scheduling policies compared in the paper.

Conventional (source-unaware) schemes — Sec. II-B / Fig. 1:

* :class:`RoundRobinPolicy` — Fig. 1(a); the Linux/Intel default;
* :class:`DedicatedPolicy` — Fig. 1(b); the Linux/AMD "lowest priority"
  default that funnels everything to the last core;
* :class:`LeastLoadedPolicy` — Sec. III policy (iii), the idealized
  per-interrupt balance scheme;
* :class:`IrqbalancePolicy` — the irqbalance daemon: rx queues are hashed
  per flow and queue→core assignments are rebalanced periodically from
  load statistics.  This is the paper's experimental baseline.

Source-aware schemes — Sec. III policies (i) and (ii):

* :class:`SourceAwarePolicy` — deliver to the core that *issued* the
  request, as carried by the packet's ``aff_core_id`` hint (the SAIs
  prototype the paper implements);
* :class:`SourceAwareProcessPolicy` — deliver to the core the requesting
  process is running on *now* (identical unless the process migrated
  during the blocking I/O, which the paper argues is rare).

Modern steering schemes — the design space that followed the paper:

* :class:`RssPolicy` — receive-side scaling: a Toeplitz hash over the
  flow tuple indexes a static indirection table, so one flow always
  lands on one core (structurally in-order, but source-blind);
* :class:`FlowDirectorPolicy` — Intel Flow Director with ATR: transmits
  are sampled into a per-flow affinity table that the receive side
  follows, reproducing the packet-reordering pathology of arXiv
  1106.0443 when the flow's core repoints mid-flight;
* :class:`RpsRfsPolicy` — Linux RPS/RFS: the hardware IRQ lands on one
  fixed core, which re-steers the softirq work to the flow's consuming
  core over the interconnect (an extra inter-core hop per packet);
* :class:`RdmaZeroInterruptPolicy` — the zero-interrupt upper bound:
  the NIC places data directly into the consumer's cache and never
  interrupts at all.
"""

from __future__ import annotations

import typing as t

from ..errors import ConfigError
from .policy import InterruptSchedulingPolicy, register_policy

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.apic import InterruptContext
    from ..hw.core import Core

__all__ = [
    "RoundRobinPolicy",
    "AdaptiveSourceAwarePolicy",
    "DedicatedPolicy",
    "LeastLoadedPolicy",
    "IrqbalancePolicy",
    "SourceAwarePolicy",
    "SourceAwareProcessPolicy",
    "RssPolicy",
    "FlowDirectorPolicy",
    "RpsRfsPolicy",
    "RdmaZeroInterruptPolicy",
    "toeplitz_hash",
]


def _least_loaded(cores: t.Sequence["Core"]) -> int:
    """Index of the least-loaded core; deterministic tie-break by index."""
    best = 0
    best_load = cores[0].load()
    for core in cores[1:]:
        load = core.load()
        if load < best_load:
            best, best_load = core.index, load
    return best


@register_policy
class RoundRobinPolicy(InterruptSchedulingPolicy):
    """Strict rotation across all cores, one interrupt at a time."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        core = self._next % len(cores)
        self._next += 1
        return core


@register_policy
class DedicatedPolicy(InterruptSchedulingPolicy):
    """All interrupts to the highest-numbered core, matching the paper's
    observation that the AMD lowest-priority mode lands everything on
    core 7."""

    name = "dedicated"

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        return len(cores) - 1


@register_policy
class LeastLoadedPolicy(InterruptSchedulingPolicy):
    """Per-interrupt selection of the currently least-loaded core."""

    name = "least_loaded"

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        return _least_loaded(cores)


@register_policy
class IrqbalancePolicy(InterruptSchedulingPolicy):
    """A model of the irqbalance daemon over multi-queue RSS hashing.

    Flows (per-server TCP connections) hash onto one rx queue per core;
    every :attr:`REBALANCE_INTERVAL` of virtual time the queue→core map is
    recomputed from core load statistics (least-loaded cores get the
    queues first).  Between rebalances the mapping is static — exactly the
    granularity at which the real daemon operates, and the reason strips
    of one parallel request scatter across cores: the request's strips
    arrive on many *flows*.
    """

    name = "irqbalance"

    #: Seconds of virtual time between queue→core rebalances.
    REBALANCE_INTERVAL = 10e-3

    def __init__(self) -> None:
        self._assignment: list[int] = []
        self._last_balance = float("-inf")

    def _rebalance(self, cores: t.Sequence["Core"]) -> None:
        self._assignment = sorted(
            range(len(cores)), key=lambda i: (cores[i].load(), i)
        )

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        now = cores[0].env.now
        if not self._assignment or now - self._last_balance >= self.REBALANCE_INTERVAL:
            self._rebalance(cores)
            self._last_balance = now
        flow = getattr(ctx.packet, "src_server", 0)
        queue = flow % len(self._assignment)
        return self._assignment[queue]


@register_policy
class SourceAwarePolicy(InterruptSchedulingPolicy):
    """SAIs policy (i): deliver to the request-issuing core via the hint.

    Reads ``ctx.aff_core_id`` — i.e. whatever ``SrcParser`` decoded from
    the packet's IP options.  Traffic without a hint (servers not running
    ``HintCapsuler``) falls back to least-loaded, making the policy a safe
    drop-in complement to existing scheduling, as the paper positions it.
    """

    name = "source_aware"
    requires_hints = True

    def __init__(self) -> None:
        #: Interrupts steered by the no-hint fallback (option-less or
        #: unparseable packets) — the graceful-degradation counter the
        #: resilience metrics report.
        self.fallback_events = 0
        #: Round-robin cursor of the degraded fallback; None until
        #: :meth:`enable_degraded_fallback` arms it.
        self._degraded_rr: int | None = None

    def enable_degraded_fallback(self) -> None:
        """Steer unhinted packets round-robin instead of least-loaded.

        Under an option-stripping middlebox a large fraction of traffic
        arrives unhinted; per-interrupt least-loaded selection would
        chase load statistics packet by packet, while a round-robin
        rotation spreads the blinded traffic predictably — the safe
        degraded mode the fault-aware wiring arms.
        """
        if self._degraded_rr is None:
            self._degraded_rr = 0

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        aff = ctx.aff_core_id
        if aff is not None and 0 <= aff < len(cores):
            return aff
        self.fallback_events += 1
        if self._degraded_rr is not None:
            core = self._degraded_rr % len(cores)
            self._degraded_rr += 1
            return core
        return _least_loaded(cores)


@register_policy
class AdaptiveSourceAwarePolicy(InterruptSchedulingPolicy):
    """The paper's future-work direction: integrate the policies.

    Follows the source-aware hint while the hinted core has CPU headroom,
    but falls back to the least-loaded core when the hinted core is
    saturated — trading locality for balance exactly when Sec. III-D.2
    says locality stops paying (the CPU-saturated regime).
    """

    name = "adaptive_source_aware"
    requires_hints = True

    #: Hinted-core load (runnable jobs incl. queue) above which the
    #: policy abandons locality for balance.
    LOAD_THRESHOLD = 2.0

    def __init__(self) -> None:
        self.locality_hits = 0
        self.balance_fallbacks = 0

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        aff = ctx.aff_core_id
        if aff is not None and 0 <= aff < len(cores):
            if cores[aff].load() <= self.LOAD_THRESHOLD:
                self.locality_hits += 1
                return aff
        self.balance_fallbacks += 1
        return _least_loaded(cores)


@register_policy
class SourceAwareProcessPolicy(InterruptSchedulingPolicy):
    """SAIs policy (ii): deliver to the core the requester runs on *now*.

    Needs an OS-level oracle (a process locator) because hardware alone
    cannot know where the scheduler moved a blocked process; the cluster
    wiring installs one.  Falls back to the packet hint, then least-loaded.
    """

    name = "source_aware_process"
    requires_hints = True

    def __init__(self) -> None:
        self._locator: t.Callable[[int], int | None] | None = None

    def set_process_locator(self, locator: t.Callable[[int], int | None]) -> None:
        """Install ``locator(request_id) -> current core of the requester``."""
        self._locator = locator

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        if self._locator is not None:
            core = self._locator(ctx.packet.request_id)
            if core is not None and 0 <= core < len(cores):
                return core
        aff = ctx.aff_core_id
        if aff is not None and 0 <= aff < len(cores):
            return aff
        return _least_loaded(cores)


# -- modern NIC steering ------------------------------------------------

#: Microsoft's reference RSS hash key (the bytes every driver ships).
_TOEPLITZ_KEY = bytes(
    (
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    )
)
_TOEPLITZ_KEY_INT = int.from_bytes(_TOEPLITZ_KEY, "big")
_TOEPLITZ_KEY_BITS = len(_TOEPLITZ_KEY) * 8


def toeplitz_hash(data: bytes) -> int:
    """The Toeplitz hash over ``data`` with the reference RSS key.

    Pure integer arithmetic — no Python ``hash()`` (seed-dependent) and
    no RNG — so steering decisions are bit-identical across processes,
    which the determinism/``--jobs`` tiers require.
    """
    n_bits = len(data) * 8
    if n_bits + 32 > _TOEPLITZ_KEY_BITS:
        raise ConfigError(
            f"toeplitz input of {len(data)} bytes exceeds the 40-byte key"
        )
    data_int = int.from_bytes(data, "big")
    result = 0
    for i in range(n_bits):
        if (data_int >> (n_bits - 1 - i)) & 1:
            result ^= (
                _TOEPLITZ_KEY_INT >> (_TOEPLITZ_KEY_BITS - 32 - i)
            ) & 0xFFFFFFFF
    return result


def _flow_tuple_bytes(server: int, client: int) -> bytes:
    """The hashed flow 4-tuple of one (server -> client) TCP connection.

    PVFS runs one connection per (client, server) pair; we synthesize
    the addresses/ports the way a deployment would lay them out: servers
    and clients on one /16, PVFS's listening port against a stable
    per-client ephemeral port.
    """
    src_ip = 0x0A000100 + (server & 0xFF)
    dst_ip = 0x0A000200 + (client & 0xFF)
    src_port = 3334  # PVFS2 default TCP port
    dst_port = 49152 + (client & 0x3FFF)
    return (
        src_ip.to_bytes(4, "big")
        + dst_ip.to_bytes(4, "big")
        + src_port.to_bytes(2, "big")
        + dst_port.to_bytes(2, "big")
    )


@register_policy
class RssPolicy(InterruptSchedulingPolicy):
    """Receive-side scaling: Toeplitz flow hash -> indirection table -> core.

    The hash is computed once per flow (memoized — real hardware hashes
    per packet, but the value is flow-constant by construction), then
    masked into a 128-entry indirection table programmed round-robin
    over the cores, exactly like a stock driver.  One flow therefore
    always lands on one core: source-blind, but structurally immune to
    the Flow Director reordering pathology.
    """

    name = "rss"

    #: Indirection-table size (128 entries is the common hardware default).
    TABLE_SIZE = 128

    def __init__(self) -> None:
        self._flow_hash: dict[tuple[int, int], int] = {}

    def _hash_for(self, server: int, client: int) -> int:
        key = (server, client)
        cached = self._flow_hash.get(key)
        if cached is None:
            cached = toeplitz_hash(_flow_tuple_bytes(server, client))
            self._flow_hash[key] = cached
        return cached

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        packet = ctx.packet
        bucket = self._hash_for(
            getattr(packet, "src_server", 0), getattr(packet, "dst_client", 0)
        ) % self.TABLE_SIZE
        # Table entry i is programmed to core i % n_cores (driver default).
        return bucket % len(cores)


@register_policy
class FlowDirectorPolicy(InterruptSchedulingPolicy):
    """Intel Flow Director with ATR (Application Targeted Receive).

    The NIC samples *transmitted* packets and records flow -> core in a
    perfect-match affinity table; received packets of a known flow are
    steered to the recorded core, unknown flows fall back to the RSS
    hash.  Because the table follows wherever the flow was last *sent
    from*, it repoints whenever the consumer moves (or another process
    sharing the connection transmits) — and segments of one strip split
    across two cores' softirq queues then complete out of order.  That
    is the packet-reordering pathology of arXiv 1106.0443, observable
    here as nonzero ``out_of_order_segments``/``dup_acks`` while ``rss``
    stays at zero on the same workload.
    """

    name = "flow_director"

    def __init__(self) -> None:
        self._rss = RssPolicy()
        #: Perfect-match filter table: flow (server id) -> sampled core.
        self._flow_table: dict[int, int] = {}
        #: TX samples that *repointed* an existing entry — each one is a
        #: window in which in-flight RX packets of the flow can split
        #: across the old and new core (the reordering hazard).
        self.flow_migrations = 0

    def observe_tx(self, server: int, core: int) -> None:
        previous = self._flow_table.get(server)
        if previous != core:
            if previous is not None:
                self.flow_migrations += 1
            self._flow_table[server] = core

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        flow = getattr(ctx.packet, "src_server", 0)
        core = self._flow_table.get(flow)
        if core is not None and 0 <= core < len(cores):
            return core
        return self._rss.select_core(ctx, cores)


@register_policy
class RpsRfsPolicy(InterruptSchedulingPolicy):
    """Linux RPS + RFS: hardware IRQ on one core, software steering after.

    Models a single-queue NIC whose interrupt is pinned to :attr:`HW_CORE`.
    The hardirq/early-softirq half runs there; Receive Flow Steering
    then looks up the flow's *consuming* core (the kernel's flow table,
    modeled by the process locator the client installs) and hands the
    protocol work to that core's softirq via an inter-processor signal
    on the interconnect — source-aware placement, bought with an extra
    cross-core hop per packet (``CostModel.rps_dispatch_cost`` plus the
    interconnect signal).  Flows without a table entry spread by RSS
    hash, which is plain RPS.
    """

    name = "rps_rfs"

    #: The core the NIC's single MSI-X vector is pinned to.
    HW_CORE = 0

    def __init__(self) -> None:
        self._rss = RssPolicy()
        self._locator: t.Callable[[int], int | None] | None = None

    def set_process_locator(self, locator: t.Callable[[int], int | None]) -> None:
        """Install the kernel flow table: ``locator(request_id) -> core``."""
        self._locator = locator

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        hw = self.HW_CORE
        target: int | None = None
        if self._locator is not None:
            target = self._locator(ctx.packet.request_id)
        if target is None or not 0 <= target < len(cores):
            # No RFS table entry: plain RPS spreads the flow by hash.
            target = self._rss.select_core(ctx, cores)
        if target != hw:
            # The handling softirq performs the cross-core handoff.
            ctx.rps_target = target
        return hw


@register_policy
class RdmaZeroInterruptPolicy(InterruptSchedulingPolicy):
    """Zero-interrupt RDMA-style placement: the upper bound.

    The NIC writes each strip directly into the consuming core's cache
    (DDIO-style) and completes without raising any interrupt: no vector
    dispatch, no softirq protocol work, no wake-up IPI.  The client
    wires the NIC's zero-interrupt sink when it sees
    ``interrupt_free``; :meth:`select_core` is only reached on a stack
    wired *without* the bypass, where it degenerates to NIC-driven
    placement through the interrupt path.
    """

    name = "rdma_zerointr"
    interrupt_free = True

    def __init__(self) -> None:
        self._locator: t.Callable[[int], int | None] | None = None

    def set_process_locator(self, locator: t.Callable[[int], int | None]) -> None:
        """Install the placement oracle: ``locator(request_id) -> core``."""
        self._locator = locator

    def placement_core(self, packet: t.Any, n_cores: int) -> int:
        """Where the NIC DMA-places ``packet``'s payload."""
        if self._locator is not None:
            core = self._locator(packet.request_id)
            if core is not None and 0 <= core < n_cores:
                return core
        request_core = getattr(packet, "request_core", None)
        if request_core is not None and 0 <= request_core < n_cores:
            return request_core
        return 0

    def select_core(self, ctx: "InterruptContext", cores: t.Sequence["Core"]) -> int:
        return self.placement_core(ctx.packet, len(cores))
