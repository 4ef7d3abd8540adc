"""Fig. 12 — multi-client scalability: 8 servers, 4..56 client nodes.

Paper claims: aggregate bandwidth speed-up peaks at **20.46% with 8
clients**, then decays as the 8 I/O servers saturate (fewer requests per
client -> smaller NR -> smaller SAIs advantage, per eq. (5)/(6)); SAIs
never hurts, even in the overloaded cases.
"""

from __future__ import annotations

from ..cluster.simulation import compare_policies
from ..config import ClusterConfig, ServerConfig, WorkloadConfig
from ..units import Gbit, MiB
from .base import ExperimentResult, register_grid_experiment, resolve_scale
from .grids import nic_config

__all__ = ["CLIENT_COUNTS"]

#: The paper's client-count sweep.
CLIENT_COUNTS = (4, 8, 16, 24, 32, 48, 56)

#: Servers in the multi-client experiment run page-cache-hot: the paper
#: averages at least three repeated reads of the same file, and 10 GB
#: spread over 8 servers fits their 8 GB-RAM nodes' caches — which is how
#: 8 servers sustain the multi-gigabyte aggregate rates Fig. 12 shows.
#: Compute nodes have three 1-Gigabit ports, bonded like the client's.
_FIG12_SERVER = ServerConfig(cache_hit_ratio=0.98, nic_bandwidth=3 * Gbit)


def _workload(scale: str) -> WorkloadConfig:
    per_process = {"quick": 2 * MiB, "default": 4 * MiB, "full": 16 * MiB}[
        resolve_scale(scale)
    ]
    return WorkloadConfig(
        n_processes=4, transfer_size=1 * MiB, file_size=per_process
    )


def _grid(scale: str) -> tuple[ClusterConfig, ...]:
    counts = CLIENT_COUNTS if resolve_scale(scale) != "quick" else (4, 8, 24)
    return tuple(
        ClusterConfig(
            n_servers=8,
            n_clients=n_clients,
            client=nic_config(3),
            server=_FIG12_SERVER,
            workload=_workload(scale),
        )
        for n_clients in counts
    )


def _assemble(scale, specs, comparisons) -> ExperimentResult:
    rows = []
    speedups = {}
    for config, comparison in zip(specs, comparisons):
        speedups[config.n_clients] = comparison.bandwidth_speedup
        rows.append(
            (
                config.n_clients,
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{comparison.bandwidth_speedup:+.2%}",
            )
        )
    peak_clients = max(speedups, key=lambda k: speedups[k])
    return ExperimentResult(
        exp_id="fig12_multiclient",
        title="Fig. 12 — aggregate I/O bandwidth vs client count (8 servers)",
        headers=("clients", "irqbalance MB/s", "SAIs MB/s", "speed-up"),
        rows=tuple(rows),
        paper={
            "peak_speedup_pct": 20.46,
            "peak_at_clients": 8,
            "min_speedup_pct": 1.39,
        },
        measured={
            "peak_speedup_pct": max(speedups.values()) * 100,
            "peak_at_clients": float(peak_clients),
            "min_speedup_pct": min(speedups.values()) * 100,
        },
        notes=(
            "Past the saturation point the per-client request rate NR "
            "drops, which shrinks the SAIs advantage exactly as eq. (5)/(6) "
            "predict.",
        ),
    )


# Regenerate Fig. 12: aggregate bandwidth vs number of clients.
register_grid_experiment(
    "fig12_multiclient",
    grid=_grid,
    run_point=compare_policies,
    assemble=_assemble,
)
