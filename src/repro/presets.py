"""Hardware-generation presets.

The default :class:`~repro.config.ClusterConfig` models the paper's 2008
Sun-Fire testbed.  These presets scale the same model to other hardware
generations so the paper's central question — *does interrupt data
locality beat load balance?* — can be re-asked where its conclusion
points: "datacenters with high-speed networks connections and for data
intensive applications".

The scaling logic per generation:

* NIC bandwidth grows much faster than per-core clocks (the I/O-wall
  argument of the paper's own introduction);
* cache-to-cache transfers stay *latency-bound per line*: coherence
  round trips shrank from ~310 ns to ~100 ns between 2008 and the 2020s —
  only ~3x, while NICs grew 25-100x;
* storage moved from 7.2K spindles to NVMe: the server tier stops being
  the low-server-count bottleneck.

Net effect: the fraction of strip time spent in the migration path
*grows* with hardware generation, so the source-aware win should persist
or grow — which the ``modern_hardware`` example and test verify.
"""

from __future__ import annotations

import dataclasses

from .config import (
    ClientConfig,
    ClusterConfig,
    CostModel,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from .units import GHz, Gbit, KiB, MiB

__all__ = ["paper_testbed", "modern_datacenter", "GENERATIONS"]


def paper_testbed(**overrides) -> ClusterConfig:
    """The 2008 Sun-Fire cluster of Sec. V-A (the package defaults)."""
    return ClusterConfig(**overrides)


def modern_datacenter(
    nic_gigabits: int = 25, **overrides
) -> ClusterConfig:
    """A 2020s datacenter node: 16 cores, 25 GbE, NVMe-backed servers.

    Per-line coherence latency improved ~3x (100 ns/line => c2c ≈
    640 MB/s effective) while protocol processing, copies and crypto
    improved ~5-10x (AES-NI).  The NIC improved 8-33x — the imbalance the
    paper predicted.
    """
    client = ClientConfig(
        n_cores=16,
        n_sockets=2,
        clock_hz=3.0 * GHz,
        l2_bytes=1024 * KiB,
        nic_ports=nic_gigabits,
        nic_port_bandwidth=1.0 * Gbit,
    )
    costs = CostModel(
        protocol_rate=25.0e9,
        irq_overhead=1.0e-6,
        c2c_rate=6.4e8,                 # ~100 ns/line cross-socket
        intra_socket_c2c_rate=1.6e9,    # ~40 ns/line shared L3
        c2c_latency=1.0e-6,
        mem_fetch_rate=8.0e8,
        local_copy_rate=20.0e9,
        encrypt_rate=3.0e9,             # AES-NI
        wakeup_cost=0.5e-6,
        request_issue_cost=2.0e-6,
    )
    server = ServerConfig(
        disk_rate=3000 * MiB,           # NVMe streaming
        disk_seek=80e-6,                # NVMe access latency
        cache_hit_ratio=0.62,
        cache_rate=8000 * MiB,
        nic_bandwidth=float(nic_gigabits) * Gbit,
        service_overhead=10e-6,
    )
    network = NetworkConfig(
        latency=10e-6,
        framing_overhead=0.03,          # jumbo frames
        switch_bandwidth=3200 * Gbit,
    )
    workload = WorkloadConfig(
        n_processes=16, transfer_size=1 * MiB, file_size=32 * MiB
    )
    defaults = dict(
        client=client,
        costs=costs,
        server=server,
        network=network,
        workload=workload,
        n_servers=32,
        strip_size=64 * KiB,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


#: Named generations for sweeps: (label, config factory).
GENERATIONS = {
    "2008 / 3 GbE (paper)": lambda: paper_testbed(
        workload=WorkloadConfig(
            n_processes=8, transfer_size=1 * MiB, file_size=8 * MiB
        ),
        n_servers=32,
    ),
    "2020s / 10 GbE": lambda: modern_datacenter(
        nic_gigabits=10,
        workload=WorkloadConfig(
            n_processes=16, transfer_size=1 * MiB, file_size=16 * MiB
        ),
    ),
    "2020s / 25 GbE": lambda: modern_datacenter(
        nic_gigabits=25,
        workload=WorkloadConfig(
            n_processes=16, transfer_size=1 * MiB, file_size=16 * MiB
        ),
    ),
}


def generation_configs() -> dict[str, ClusterConfig]:
    """Materialize the generation sweep."""
    return {label: factory() for label, factory in GENERATIONS.items()}
