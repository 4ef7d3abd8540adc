"""Configuration dataclasses for the simulated cluster.

The defaults model the paper's testbed (Sec. V-A):

* client = the Sun-Fire 4240 head node — two quad-core 2.7 GHz Opteron 2384
  (8 cores), 512 KiB dedicated L2 per core, three 1-Gigabit BCM5715C ports;
* servers = Sun-Fire 2200 compute nodes — 250 GB 7.2K-RPM SATA-II disk,
  1-Gigabit ports;
* PVFS 2.8.1 with a 64 KiB strip size;
* DDR2-667 memory: an evicted strip is refetched over the interconnect at
  the latency-bound ``CostModel.mem_fetch_rate``, well below the 5333 MB/s
  peak (JESD79-2F, the paper's ref [19]) that only the Section VI memory
  simulation models (:class:`repro.memsim.MemsimConfig`).

Per-byte cost rates in :class:`CostModel` are where the reproduction is
*calibrated* rather than measured: they are chosen to be physically plausible
for that hardware generation and to land the emergent headline numbers in
the paper's bands (see ``DESIGN.md`` §5 and the claims ledger,
``tests/experiments/test_claims.py``).

Configs are built three ways: by hand (tests, ad-hoc scripts), by the
experiment grids (:mod:`repro.experiments.grids`), or expanded from a
declarative scenario spec by :mod:`repro.scenarios` — the latter draws
every field below from seeded distributions, so anything valid here is
reachable from a spec.
"""

from __future__ import annotations

import dataclasses
import typing as t

from .errors import ConfigError
from .faults.plan import FaultPlan
from .units import GHz, Gbit, KiB, MiB, USEC

__all__ = [
    "CACHE_LINE",
    "CostModel",
    "ClientConfig",
    "ServerConfig",
    "NetworkConfig",
    "WorkloadConfig",
    "ClusterConfig",
    "DEFAULT_COST_MODEL",
]


#: Bytes per cache line on the modeled Opteron (the unit of the L2
#: access and miss counts).
CACHE_LINE = 64


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value}")


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Per-operation timing constants for the client machine.

    The two quantities the paper's analysis names are derivable:

    * ``P`` (strip processing) ≈ ``irq_overhead + strip/protocol_rate``;
    * ``M`` (strip migration) ≈ ``c2c_latency + strip/c2c_rate``.

    The paper requires ``M >> P``; the defaults give M/P ≈ 25 for a
    64 KiB strip across sockets, consistent with cache-to-cache transfers
    over HyperTransport being latency-bound per line while protocol
    processing streams.
    """

    #: Softirq protocol-processing throughput per core (bytes/s).  ~6 GB/s
    #: puts P(64 KiB) ≈ 13 µs including the fixed vector cost below.
    protocol_rate: float = 6.0e9
    #: Fixed cost of taking one interrupt (vector dispatch, driver entry).
    irq_overhead: float = 2.0 * USEC
    #: *Cross-socket* cache-to-cache strip transfer throughput over the
    #: serialized inter-core interconnect (bytes/s).  Cache-to-cache
    #: movement is *latency-bound per line*, not bandwidth-bound: every
    #: 64 B line costs a coherence round trip (~310 ns across the
    #: HyperTransport hop between the two Opteron packages), so the
    #: effective rate is ≈ 205 MB/s and M_cross(64 KiB) ≈ 323 µs.  This is
    #: what makes M >> P.
    c2c_rate: float = 2.05e8
    #: *Intra-socket* cache-to-cache rate: cores in the same package share
    #: the Barcelona L3, so the per-line round trip is ~140 ns
    #: (≈ 450 MB/s, M_intra(64 KiB) ≈ 148 µs).  With a uniformly
    #: scattering balancer and 2 x 4 cores, the expected remote-transfer
    #: cost is (3/7) x M_intra + (4/7) x M_cross ≈ 250 µs — the calibrated
    #: mean M of DESIGN.md §5.
    intra_socket_c2c_rate: float = 4.5e8
    #: Fixed latency to set up one cache-to-cache transfer (coherence
    #: round-trip before lines start streaming).
    c2c_latency: float = 3.0 * USEC
    #: Fetching an evicted strip back from DRAM (bytes/s, per accessor).
    #: Demand misses are latency-bound like cache-to-cache transfers
    #: (~200 ns/line on DDR2 with the NUMA hop), slightly cheaper than a
    #: dirty c2c line but the same order — and they ride the same
    #: serialized fill path.
    mem_fetch_rate: float = 3.2e8
    #: Copy cost when the strip is already resident in the consuming
    #: core's cache (bytes/s) — the cheap, source-aware path.
    local_copy_rate: float = 4.5e9
    #: The IOR "added computing task" — encrypting received data
    #: (bytes/s per core; software AES on a 2008 Opteron runs at a few
    #: hundred MB/s per core).
    encrypt_rate: float = 3.0e8
    #: Inter-processor wake-up signal cost (paper Sec. IV-B: "inter-core
    #: signals are sent to wake the application process").
    wakeup_cost: float = 1.0 * USEC
    #: Cost for the application to issue one PFS request (syscall + client
    #: fan-out bookkeeping).
    request_issue_cost: float = 5.0 * USEC
    #: RPS/RFS cross-core handoff: flow-table lookup + enqueue onto the
    #: remote core's backlog, paid on the hardware-IRQ core before the
    #: interconnect IPI (rps_rfs policy only).
    rps_dispatch_cost: float = 1.0 * USEC

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            _positive(field.name, getattr(self, field.name))

    def strip_processing_time(self, strip_size: int) -> float:
        """``P``: softirq handling time for one strip-sized interrupt."""
        return self.irq_overhead + strip_size / self.protocol_rate

    def strip_migration_time(self, strip_size: int) -> float:
        """``M``: cross-socket cache-to-cache movement time for one strip
        (the analysis' worst case; the client's merge picks the shared-L3
        rate for a same-socket transfer)."""
        return self.c2c_latency + strip_size / self.c2c_rate


DEFAULT_COST_MODEL = CostModel()


@dataclasses.dataclass(frozen=True)
class ClientConfig:
    """The I/O client machine (the cluster head node in the paper)."""

    n_cores: int = 8
    #: CPU packages; cores are split evenly (two quad-core Opteron 2384
    #: in the paper's head node).  Cache-to-cache transfers within a
    #: socket ride the shared L3; across sockets they pay the
    #: HyperTransport hop.
    n_sockets: int = 2
    clock_hz: float = 2.7 * GHz
    #: Dedicated private L2 per core (a whole number of 64-byte lines).
    l2_bytes: int = 512 * KiB
    #: Number of bonded 1-Gigabit ports (1 or 3 in the paper).
    nic_ports: int = 3
    nic_port_bandwidth: float = 1.0 * Gbit
    #: Linux-NAPI style adaptive coalescing: interrupts are disabled while
    #: a poll runs and the polling core drains pending packets in batches.
    #: Off by default — the paper-era driver raises one IRQ per strip.
    napi: bool = False

    def __post_init__(self) -> None:
        _positive("n_cores", self.n_cores)
        _positive("n_sockets", self.n_sockets)
        _positive("clock_hz", self.clock_hz)
        _positive("l2_bytes", self.l2_bytes)
        _positive("nic_ports", self.nic_ports)
        _positive("nic_port_bandwidth", self.nic_port_bandwidth)
        if self.l2_bytes % CACHE_LINE:
            raise ConfigError(
                f"l2_bytes must be a multiple of the {CACHE_LINE}-byte cache line"
            )
        if self.n_cores % self.n_sockets:
            raise ConfigError(
                f"{self.n_cores} cores do not split evenly over "
                f"{self.n_sockets} sockets"
            )

    @property
    def nic_bandwidth(self) -> float:
        """Aggregate client NIC bandwidth in bytes/s."""
        return self.nic_ports * self.nic_port_bandwidth

    @property
    def cores_per_socket(self) -> int:
        """Cores per CPU package."""
        return self.n_cores // self.n_sockets

    def socket_of(self, core_index: int) -> int:
        """The package a core belongs to."""
        if not 0 <= core_index < self.n_cores:
            raise ConfigError(f"core {core_index} out of range")
        return core_index // self.cores_per_socket


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """One PVFS I/O server node (a Sun-Fire 2200 compute node)."""

    #: Streaming read rate of the 7.2K-RPM SATA-II disk.
    disk_rate: float = 80 * MiB
    #: Positioning cost charged once per strip request (seek + rotation;
    #: a 7.2K-RPM spindle averages ~4.2 ms rotational latency alone, and
    #: concurrent IOR processes defeat pure sequentiality).
    disk_seek: float = 4.0e-3
    #: Fraction of strip reads absorbed by the server page cache
    #: (readahead helps, but eight concurrent strided readers thrash it).
    cache_hit_ratio: float = 0.62
    #: Service rate for page-cache hits (memory read + kernel copy).
    cache_rate: float = 400 * MiB
    nic_bandwidth: float = 1.0 * Gbit
    #: Fixed per-request server software overhead (request decode, BMI).
    service_overhead: float = 50.0 * USEC

    def __post_init__(self) -> None:
        _positive("disk_rate", self.disk_rate)
        _non_negative("disk_seek", self.disk_seek)
        if not 0.0 <= self.cache_hit_ratio <= 1.0:
            raise ConfigError("cache_hit_ratio must be in [0, 1]")
        _positive("cache_rate", self.cache_rate)
        _positive("nic_bandwidth", self.nic_bandwidth)
        _non_negative("service_overhead", self.service_overhead)


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """The switched Ethernet fabric between clients and servers."""

    #: One-way propagation + switching latency per packet.
    latency: float = 60.0 * USEC
    #: Ethernet + IP + TCP framing overhead per raw payload byte (preamble,
    #: headers; ~6% at 1500-byte MTU).
    framing_overhead: float = 0.06
    #: Backplane of the switch (Catalyst 4948: effectively non-blocking for
    #: this port count; set lower to model an oversubscribed fabric).
    switch_bandwidth: float = 96 * Gbit
    #: TCP maximum segment size.  ``None`` (default) models NIC/NAPI
    #: coalescing of each strip's frame train into one interrupt — the
    #: paper's one-interrupt-per-strip accounting.  Set e.g. 8960 (jumbo)
    #: or 1448 to make each strip travel as per-segment packets, each
    #: raising its own interrupt, with reassembly before the consumer is
    #: woken; the IP option's copied flag puts the SAIs hint on every
    #: segment.
    mss: int | None = None

    def __post_init__(self) -> None:
        _non_negative("latency", self.latency)
        _non_negative("framing_overhead", self.framing_overhead)
        _positive("switch_bandwidth", self.switch_bandwidth)
        if self.mss is not None:
            _positive("mss", self.mss)


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """An IOR-like synchronous parallel read workload on one client."""

    #: Number of concurrent IOR processes on the client.
    n_processes: int = 8
    #: Bytes per IOR read call (the IOR "transfer size").
    transfer_size: int = 1 * MiB
    #: Bytes each process reads in total.  The paper reads 10 GB; the
    #: default here is scaled down because bandwidth is a steady-state rate
    #: (see tests/cluster/test_run_length_invariance.py).
    file_size: int = 32 * MiB
    #: ``"read"`` (the paper's focus) or ``"write"`` (implemented to verify
    #: the paper's claim that writes have no interrupt-locality issue).
    operation: str = "read"
    #: MPI-IO collective semantics: all processes synchronize at a barrier
    #: before each transfer, as in ``MPI_File_read_all`` (the paper ran
    #: IOR through the MPI-IO API).  Independent I/O (False) is IOR's
    #: default.
    collective: bool = False
    #: IOR is the "Interleaved or Random" benchmark: ``"sequential"``
    #: walks each process's segment in order (the paper's configuration);
    #: ``"random"`` visits the same transfers in a seeded shuffle, which
    #: defeats server-side sequential locality but leaves the client-side
    #: interrupt story untouched.
    access_pattern: str = "sequential"
    #: Probability that a process migrates to another core while blocked on
    #: an outstanding request (Sec. III policies (i) vs (ii) ablation; the
    #: paper argues this is rare, and 0 is the default).
    migrate_during_io: float = 0.0

    def __post_init__(self) -> None:
        _positive("n_processes", self.n_processes)
        _positive("transfer_size", self.transfer_size)
        _positive("file_size", self.file_size)
        if self.file_size < self.transfer_size:
            raise ConfigError("file_size must be >= transfer_size")
        if self.operation not in ("read", "write"):
            raise ConfigError(
                f"operation must be 'read' or 'write', got {self.operation!r}"
            )
        if self.access_pattern not in ("sequential", "random"):
            raise ConfigError(
                "access_pattern must be 'sequential' or 'random', "
                f"got {self.access_pattern!r}"
            )
        if not 0.0 <= self.migrate_during_io <= 1.0:
            raise ConfigError("migrate_during_io must be in [0, 1]")

    @property
    def requests_per_process(self) -> int:
        """Number of read calls each process issues."""
        return self.file_size // self.transfer_size


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build and run one simulated experiment point."""

    client: ClientConfig = dataclasses.field(default_factory=ClientConfig)
    server: ServerConfig = dataclasses.field(default_factory=ServerConfig)
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    workload: WorkloadConfig = dataclasses.field(default_factory=WorkloadConfig)
    costs: CostModel = dataclasses.field(default_factory=CostModel)
    #: Number of PVFS I/O server nodes (8/16/32/48 in the paper).
    n_servers: int = 8
    #: Number of client nodes (1 except in the Fig. 12 experiment).
    n_clients: int = 1
    #: PVFS strip size.
    strip_size: int = 64 * KiB
    #: Interrupt-scheduling policy name (see repro.core.policy registry).
    policy: str = "irqbalance"
    seed: int = 1
    #: Fault-injection plan (repro.faults).  None — or a plan with every
    #: probability at zero — builds a byte-identical cluster to the
    #: fault-free one: no injector, no watchdogs, no extra events.
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        _positive("n_servers", self.n_servers)
        _positive("n_clients", self.n_clients)
        _positive("strip_size", self.strip_size)
        if not self.policy:
            raise ConfigError("policy name must be non-empty")
        # Validate against the live registry so a typo fails at config
        # construction (CLI, trace runs, experiment grids) rather than
        # deep inside cluster build.  Imported lazily: repro.core pulls
        # in modules that import this one.
        from .core import policies as _policies  # noqa: F401  (registers)
        from .core.policy import available_policies, unknown_policy_error

        if self.policy not in available_policies():
            raise unknown_policy_error(self.policy)
        # A plan naming a server this cluster lacks fails here, while a
        # grid is planned, not when one of its points is built.
        plan = self.faults
        if plan is not None and not plan.is_null:
            failing = [server for server, _, _ in plan.server_failure_windows]
            worst = max((*plan.straggler_servers, *failing), default=-1)
            if worst >= self.n_servers:
                raise ConfigError(
                    f"fault plan targets server {worst} but the cluster has "
                    f"only {self.n_servers} servers"
                )

    def with_policy(self, policy: str) -> "ClusterConfig":
        """A copy of this config under a different interrupt policy."""
        return dataclasses.replace(self, policy=policy)

    def replace(self, **changes: t.Any) -> "ClusterConfig":
        """`dataclasses.replace` convenience passthrough."""
        return dataclasses.replace(self, **changes)
