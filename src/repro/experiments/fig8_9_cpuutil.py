"""Figs. 8 and 9 — CPU utilization under the two scheduling schemes.

Paper claims:

* Fig. 8 (1 Gb, single application): utilization stays low — at most
  **15.13%** — because the NIC, not the CPU, is the bottleneck.
* Fig. 9 (3 Gb): irqbalance burns visibly more CPU cycles on data
  movement than SAIs; utilization scales roughly linearly with NIC speed.
"""

from __future__ import annotations

from ..cluster.simulation import compare_policies
from ..units import sum_left
from .base import ExperimentResult, register_grid_experiment
from .grids import sweep_fig5_specs, sweep_points

__all__: list[str] = []


def _util_rows(points):
    rows = []
    for point in points:
        comparison = point.comparison
        rows.append(
            (
                point.transfer_label,
                point.n_servers,
                f"{comparison.baseline.cpu_utilization:.2%}",
                f"{comparison.treatment.cpu_utilization:.2%}",
            )
        )
    return rows


def _assemble_fig8(scale, specs, comparisons) -> ExperimentResult:
    points = sweep_points(specs, comparisons)
    max_util = max(
        max(
            p.comparison.baseline.cpu_utilization,
            p.comparison.treatment.cpu_utilization,
        )
        for p in points
    )
    return ExperimentResult(
        exp_id="fig8_cpuutil_1g",
        title="Fig. 8 — CPU utilization, single application, 1-Gigabit NIC",
        headers=("transfer", "servers", "irqbalance util", "SAIs util"),
        rows=tuple(_util_rows(points)),
        paper={"max_util_pct": 15.13},
        measured={"max_util_pct": max_util * 100},
        notes=(
            "The paper's point: utilization stays far below saturation "
            "because the 1-Gigabit NIC gates the data; more efficient "
            "interrupt handling cannot be offset by parallel handling.",
        ),
    )


def _grid_fig9(scale):
    # Fig. 9 compares against the 1 Gb campaign for the "utilization is
    # roughly linear in NIC speed" claim, so its grid is both sweeps;
    # the shared point keys mean the cells still run once per invocation.
    return sweep_fig5_specs(scale, nic_gigabits=3) + sweep_fig5_specs(
        scale, nic_gigabits=1
    )


def _assemble_fig9(scale, specs, comparisons) -> ExperimentResult:
    rows = sweep_points(specs, comparisons)
    half = len(rows) // 2
    points, one_g = rows[:half], rows[half:]
    irq_always_higher = all(
        p.comparison.baseline.cpu_utilization
        > p.comparison.treatment.cpu_utilization
        for p in points
    )
    mean_util_3g = sum_left(
        p.comparison.baseline.cpu_utilization for p in points
    ) / len(points)
    mean_util_1g = sum_left(
        p.comparison.baseline.cpu_utilization for p in one_g
    ) / len(one_g)
    return ExperimentResult(
        exp_id="fig9_cpuutil_3g",
        title="Fig. 9 — CPU utilization, 3-Gigabit NIC",
        headers=("transfer", "servers", "irqbalance util", "SAIs util"),
        rows=tuple(_util_rows(points)),
        paper={
            "irqbalance_higher_everywhere": 1.0,
            # "a possible linear relation between CPU capacity and network
            # speed": 3x the NIC should give roughly 3x the busy cycles.
            "util_ratio_3g_over_1g": 3.0,
        },
        measured={
            "irqbalance_higher_everywhere": 1.0 if irq_always_higher else 0.0,
            "util_ratio_3g_over_1g": (
                mean_util_3g / mean_util_1g if mean_util_1g > 0 else float("nan")
            ),
        },
    )


# Regenerate Fig. 8: single application, 1-Gigabit NIC.
register_grid_experiment(
    "fig8_cpuutil_1g",
    grid=lambda scale: sweep_fig5_specs(scale, nic_gigabits=1, n_processes=1),
    run_point=compare_policies,
    assemble=_assemble_fig8,
)

# Regenerate Fig. 9: 3-Gigabit NIC, irqbalance burns more CPU.
register_grid_experiment(
    "fig9_cpuutil_3g",
    grid=_grid_fig9,
    run_point=compare_policies,
    assemble=_assemble_fig9,
)
