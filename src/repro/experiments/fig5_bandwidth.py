"""Fig. 5 (3-Gigabit bandwidth + speed-up) and Sec. V-C (1-Gigabit).

Paper claims:

* 3-Gigabit NIC: SAIs improves I/O bandwidth in all cases; the speed-up
  grows with the number of I/O servers, reaching **23.57%** at 48 nodes;
  absolute bandwidth stays below the 3-Gigabit line.
* 1-Gigabit NIC: the NIC is the bottleneck; the peak speed-up is only
  **6.05%**.
"""

from __future__ import annotations

from ..cluster.simulation import compare_policies
from ..units import MiB, bits_per_sec
from .base import ExperimentResult, register_grid_experiment
from .grids import sweep_fig5_specs, sweep_points

__all__: list[str] = []


def _bandwidth_rows(points):
    rows = []
    for point in points:
        comparison = point.comparison
        rows.append(
            (
                point.transfer_label,
                point.n_servers,
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{comparison.bandwidth_speedup:+.2%}",
            )
        )
    return rows


def _assemble_fig5(scale, specs, comparisons) -> ExperimentResult:
    points = sweep_points(specs, comparisons)
    max_speedup = max(p.comparison.bandwidth_speedup for p in points)
    best_at_48 = max(
        (
            p.comparison.bandwidth_speedup
            for p in points
            if p.n_servers == max(q.n_servers for q in points)
        ),
    )
    max_bandwidth = max(
        max(p.comparison.baseline.bandwidth, p.comparison.treatment.bandwidth)
        for p in points
    )
    return ExperimentResult(
        exp_id="fig5_bandwidth_3g",
        title="Fig. 5 — IOR read bandwidth, 3-Gigabit NIC (irqbalance vs SAIs)",
        headers=("transfer", "servers", "irqbalance MB/s", "SAIs MB/s", "speed-up"),
        rows=tuple(_bandwidth_rows(points)),
        paper={
            "max_speedup_pct": 23.57,
            "bandwidth_below_gbit": 3.0,
        },
        measured={
            "max_speedup_pct": max_speedup * 100,
            "bandwidth_below_gbit": bits_per_sec(max_bandwidth) / 1e9,
            "speedup_at_most_servers_pct": best_at_48 * 100,
        },
        notes=(
            "At 8 servers the server tier (disk+page cache) is the binding "
            "constraint in our model and the two policies tie; the paper "
            "still measured ~10% there.",
        ),
    )


def _assemble_sec5c(scale, specs, comparisons) -> ExperimentResult:
    points = sweep_points(specs, comparisons)
    max_speedup = max(p.comparison.bandwidth_speedup for p in points)
    max_bandwidth = max(
        max(p.comparison.baseline.bandwidth, p.comparison.treatment.bandwidth)
        for p in points
    )
    return ExperimentResult(
        exp_id="sec5c_bandwidth_1g",
        title="Sec. V-C — IOR read bandwidth, 1-Gigabit NIC (irqbalance vs SAIs)",
        headers=("transfer", "servers", "irqbalance MB/s", "SAIs MB/s", "speed-up"),
        rows=tuple(_bandwidth_rows(points)),
        paper={"peak_speedup_pct": 6.05, "bandwidth_below_gbit": 1.0},
        measured={
            "peak_speedup_pct": max_speedup * 100,
            "bandwidth_below_gbit": bits_per_sec(max_bandwidth) / 1e9,
        },
        notes=(
            "With the 1-Gigabit link hard-saturated by 8 processes the "
            "modeled policies tie (~0-1%); the paper's 6.05% suggests its "
            "1-Gigabit runs were not fully NIC-saturated.",
        ),
    )


# Regenerate Fig. 5: IOR bandwidth under irqbalance vs SAIs, 3 Gb.
register_grid_experiment(
    "fig5_bandwidth_3g",
    grid=lambda scale: sweep_fig5_specs(scale, nic_gigabits=3),
    run_point=compare_policies,
    assemble=_assemble_fig5,
)

# Regenerate the Sec. V-C 1-Gigabit observation: NIC-bound, small gain.
register_grid_experiment(
    "sec5c_bandwidth_1g",
    grid=lambda scale: sweep_fig5_specs(scale, nic_gigabits=1),
    run_point=compare_policies,
    assemble=_assemble_sec5c,
)
