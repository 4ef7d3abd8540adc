"""Shared sweep grids and point runners for the experiments.

The Fig. 5–11 family all plot the same underlying campaign: the
transfer-size x server-count grid run under both policies.
:func:`sweep_fig5_specs` builds that grid's
:class:`~repro.config.ClusterConfig` cells (pure, cheap, pickleable) and
:func:`sweep_points` labels each cell's result for the figure tables.

A cell runs as :func:`~repro.cluster.simulation.compare_policies` (an
irqbalance-vs-SAIs A/B) or :func:`~repro.cluster.simulation.run_experiment`
(one policy), the heavy, deterministic simulation of one cell.  The
``*_point_key`` functions here name that computation content-addressably,
which lets the runner run a cell once however many experiments consume
it.  Every irqbalance-vs-SAIs A/B shares the ``cmp:`` namespace of
:func:`comparison_point_key`: Fig. 5, 6/7, 9 and 10/11 all reuse the
3-Gigabit sweep, and the Sec. III model and the cost-model ablation reuse
its cells too.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..cluster.simulation import PolicyComparison
from ..config import ClientConfig, ClusterConfig, WorkloadConfig
from ..faults.ambient import apply_ambient_faults
from ..units import KiB, MiB, format_size
from .base import resolve_scale

__all__ = [
    "TRANSFER_SIZES",
    "SERVER_COUNTS",
    "SweepPoint",
    "nic_config",
    "fig5_cell_workload",
    "sweep_fig5_specs",
    "sweep_points",
    "comparison_point_key",
    "single_point_key",
    "file_size_for_scale",
]

#: The paper's IOR transfer sizes (Sec. V-B).
TRANSFER_SIZES = (128 * KiB, 512 * KiB, 1 * MiB, 2 * MiB)
#: The paper's PVFS server-count sweep.
SERVER_COUNTS = (8, 16, 32, 48)


def file_size_for_scale(scale: str, transfer_size: int) -> int:
    """Per-process bytes for a scale preset.

    The paper reads 10 GB per process; we scale down (bandwidth is a
    steady-state rate) while keeping at least a handful of requests per
    process at the largest transfer size.
    """
    base = {"quick": 4 * MiB, "default": 8 * MiB, "full": 64 * MiB}[
        resolve_scale(scale)
    ]
    return max(base, 4 * transfer_size)


def nic_config(gigabits: int) -> ClientConfig:
    """Client config with an N x 1-Gigabit bonded NIC."""
    return ClientConfig(nic_ports=gigabits)


def fig5_cell_workload(scale: str) -> WorkloadConfig:
    """The 1 MiB workload of the experiments built on one Fig. 5 cell.

    8 processes read 1 MiB transfers, 4/8/32 MiB each at quick/default/
    full scale (the Fig. 5 grid's 1 MiB cells read 64 MiB at full scale).
    """
    file_size = {"quick": 4 * MiB, "default": 8 * MiB, "full": 32 * MiB}[
        resolve_scale(scale)
    ]
    return WorkloadConfig(
        n_processes=8, transfer_size=1 * MiB, file_size=file_size
    )


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One (transfer size, server count) cell of the paper's grids."""

    transfer_size: int
    n_servers: int
    comparison: PolicyComparison

    @property
    def transfer_label(self) -> str:
        return format_size(self.transfer_size)


def sweep_fig5_specs(
    scale: str,
    nic_gigabits: int,
    n_processes: int = 8,
) -> tuple[ClusterConfig, ...]:
    """The grid's cells as configs — pure construction, no simulation."""
    transfer_sizes: t.Sequence[int] = TRANSFER_SIZES
    server_counts: t.Sequence[int] = SERVER_COUNTS
    if resolve_scale(scale) == "quick":
        transfer_sizes = transfer_sizes[-2:]
        server_counts = (8, 48)
    return tuple(
        apply_ambient_faults(
            ClusterConfig(
                n_servers=n_servers,
                client=nic_config(nic_gigabits),
                workload=WorkloadConfig(
                    n_processes=n_processes,
                    transfer_size=transfer,
                    file_size=file_size_for_scale(scale, transfer),
                ),
            )
        )
        for transfer in transfer_sizes
        for n_servers in server_counts
    )


def sweep_points(
    specs: t.Sequence[ClusterConfig], comparisons: t.Sequence[PolicyComparison]
) -> list[SweepPoint]:
    """Label each grid cell's comparison with its transfer and server count."""
    return [
        SweepPoint(
            transfer_size=spec.workload.transfer_size,
            n_servers=spec.n_servers,
            comparison=comparison,
        )
        for spec, comparison in zip(specs, comparisons)
    ]


def comparison_point_key(config: ClusterConfig) -> str:
    """Dedup key of an irqbalance-vs-SAIs ``compare_policies`` cell."""
    from ..runner.cache import config_digest

    return f"cmp:{config_digest(config)}"


def single_point_key(config: ClusterConfig) -> str:
    """Dedup key of a ``run_experiment`` cell (the config's own policy)."""
    from ..runner.cache import config_digest

    return f"run:{config_digest(config)}"

