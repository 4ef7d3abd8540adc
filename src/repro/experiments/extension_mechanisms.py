"""Extensions — how real-world receive/workload mechanisms interact
with source-aware scheduling.

* ``extension_napi`` — Linux NAPI (adaptive interrupt coalescing)
  batches packet processing on the polling core; batching partially
  concentrates the baseline's handling and competes with per-packet
  steering.  The question: does the SAIs win survive NAPI?
* ``extension_collective`` — MPI-IO collective transfers synchronize
  the IOR processes per iteration; the NIC idles during the collective
  merge/compute phase, moving the system away from the saturation point
  the SAIs win depends on.
"""

from __future__ import annotations

import dataclasses

from ..cluster.simulation import compare_policies
from ..config import ClientConfig, ClusterConfig
from ..units import MiB
from .base import ExperimentResult, register_grid_experiment
from .grids import comparison_point_key, fig5_cell_workload

__all__: list[str] = []


# -- extension_napi ----------------------------------------------------


def _grid_napi(scale: str) -> tuple[ClusterConfig, ...]:
    return tuple(
        ClusterConfig(
            n_servers=32,
            client=ClientConfig(nic_ports=3, napi=napi),
            workload=fig5_cell_workload(scale),
        )
        for napi in (False, True)
    )


def _assemble_napi(scale, specs, comparisons) -> ExperimentResult:
    rows = []
    speedups = {}
    for config, comparison in zip(specs, comparisons):
        napi = config.client.napi
        speedups[napi] = comparison.bandwidth_speedup
        rows.append(
            (
                "NAPI" if napi else "per-strip IRQ",
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{comparison.bandwidth_speedup:+.2%}",
            )
        )
    return ExperimentResult(
        exp_id="extension_napi",
        title="Extension — SAIs advantage with NAPI adaptive coalescing",
        headers=("rx mode", "irqbalance MB/s", "SAIs MB/s", "speed-up"),
        rows=tuple(rows),
        paper={
            # Qualitative expectation: batching helps the baseline a
            # little but cannot substitute for source-aware placement.
            "win_survives_napi": 1.0,
        },
        measured={
            "win_survives_napi": 1.0 if speedups[True] > 0.05 else 0.0,
            "speedup_without_napi_pct": speedups[False] * 100,
            "speedup_with_napi_pct": speedups[True] * 100,
        },
        notes=(
            "NAPI concentrates each poll's packets on one core, which "
            "shaves a little off the baseline's scatter — but the "
            "consumer-side migrations remain, so the win persists.",
        ),
    )


# SAIs vs irqbalance with and without NAPI coalescing.
register_grid_experiment(
    "extension_napi",
    grid=_grid_napi,
    run_point=compare_policies,
    assemble=_assemble_napi,
    point_key=comparison_point_key,
)


# -- extension_collective ----------------------------------------------


def _grid_collective(scale: str) -> tuple[ClusterConfig, ...]:
    return tuple(
        ClusterConfig(
            n_servers=32,
            client=ClientConfig(nic_ports=3),
            workload=dataclasses.replace(
                fig5_cell_workload(scale), collective=collective
            ),
        )
        for collective in (False, True)
    )


def _assemble_collective(scale, specs, comparisons) -> ExperimentResult:
    rows = []
    results = {}
    for config, comparison in zip(specs, comparisons):
        collective = config.workload.collective
        results[collective] = comparison
        rows.append(
            (
                "collective" if collective else "independent",
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{comparison.bandwidth_speedup:+.2%}",
            )
        )
    return ExperimentResult(
        exp_id="extension_collective",
        title="Extension — independent vs collective MPI-IO transfers",
        headers=("I/O mode", "irqbalance MB/s", "SAIs MB/s", "speed-up"),
        rows=tuple(rows),
        paper={
            # Barrier idle time is policy-independent; both absolute
            # bandwidths drop, the win shrinks but stays positive.
            "collective_costs_bandwidth": 1.0,
            "win_survives_collective": 1.0,
        },
        measured={
            "collective_costs_bandwidth": (
                1.0
                if results[True].treatment.bandwidth
                < results[False].treatment.bandwidth
                else 0.0
            ),
            "win_survives_collective": (
                1.0 if results[True].bandwidth_speedup > 0.03 else 0.0
            ),
            "independent_speedup_pct": results[False].bandwidth_speedup * 100,
            "collective_speedup_pct": results[True].bandwidth_speedup * 100,
        },
    )


# Independent vs collective MPI-IO transfers under both policies.
register_grid_experiment(
    "extension_collective",
    grid=_grid_collective,
    run_point=compare_policies,
    assemble=_assemble_collective,
    point_key=comparison_point_key,
)
