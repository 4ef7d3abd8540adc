"""Extension — the paper's conclusion, re-run on later hardware.

The paper closes: SAIs "may serve well as a complement of existing
processor scheduling schemes for datacenters with high-speed networks
connections and for data intensive applications."  This experiment
re-asks the headline question across hardware generations: NICs grew
25-100x between 2008 and the 2020s while per-line coherence latency
improved only ~3x, so the serialized migration path becomes *more*
dominant, not less.

History agrees: Linux later shipped RFS (Receive Flow Steering) and XPS,
which steer packet processing to the consuming task's core — the same
source-aware principle with a kernel-side flow table instead of an IP
option.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..cluster.simulation import compare_policies
from ..config import ClusterConfig
from ..presets import generation_configs
from ..units import MiB
from .base import ExperimentResult, register_grid_experiment, resolve_scale
from .grids import comparison_point_key

__all__: list[str] = []

#: One grid cell: (generation label, config).
GenerationSpec = t.Tuple[str, ClusterConfig]


def _grid(scale: str) -> tuple[GenerationSpec, ...]:
    specs = []
    for label, config in generation_configs().items():
        if resolve_scale(scale) == "quick":
            config = config.replace(
                workload=dataclasses.replace(
                    config.workload,
                    file_size=max(4 * MiB, config.workload.file_size // 4),
                )
            )
        specs.append((label, config))
    return tuple(specs)


def _run_point(spec: GenerationSpec):
    return compare_policies(spec[1])


def _point_key(spec: GenerationSpec) -> str:
    return comparison_point_key(spec[1])


def _assemble(scale, specs, comparisons) -> ExperimentResult:
    rows = []
    speedups: dict[str, float] = {}
    for (label, config), comparison in zip(specs, comparisons):
        speedups[label] = comparison.bandwidth_speedup
        rows.append(
            (
                label,
                f"{config.client.nic_bandwidth * 8 / 1e9:.0f} Gb/s",
                f"{comparison.baseline.bandwidth / MiB:.0f}",
                f"{comparison.treatment.bandwidth / MiB:.0f}",
                f"{comparison.bandwidth_speedup:+.1%}",
            )
        )
    labels = list(speedups)
    monotone = all(
        speedups[labels[i + 1]] >= speedups[labels[i]] - 0.02
        for i in range(len(labels) - 1)
    )
    return ExperimentResult(
        exp_id="extension_modern_hw",
        title="Extension — source-aware win across hardware generations",
        headers=("generation", "NIC", "balanced MB/s", "source-aware MB/s", "speed-up"),
        rows=tuple(rows),
        paper={
            # The conclusion's qualitative claim: the faster the network,
            # the more the approach matters.
            "win_grows_with_network_speed": 1.0,
        },
        measured={
            "win_grows_with_network_speed": 1.0 if monotone else 0.0,
            "paper_era_speedup_pct": speedups[labels[0]] * 100,
            "modern_25g_speedup_pct": speedups[labels[-1]] * 100,
        },
        notes=(
            "Linux's later RFS/XPS features steer packet processing to the "
            "consuming task's core — the same source-aware principle, with "
            "a kernel flow table instead of the IP-options hint.",
        ),
    )


# Bandwidth speed-up of source-aware delivery per hardware generation.
register_grid_experiment(
    "extension_modern_hw",
    grid=_grid,
    run_point=_run_point,
    assemble=_assemble,
    point_key=_point_key,
)
