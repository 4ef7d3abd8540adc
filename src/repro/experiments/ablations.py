"""Ablation experiments for the design choices DESIGN.md calls out.

* ``ablation_policies`` — Sec. III lists four scheduling policies; the
  paper implements (i) and argues (ii) would be nearly identical because
  processes rarely migrate during blocking I/O.  We run all of them (plus
  round-robin) on the Fig. 5 workload.
* ``ablation_costmodel`` — sensitivity of the SAIs advantage to the M/P
  ratio and the NIC bandwidth: the paper's claim is that the advantage
  needs both M >> P and network headroom.
* ``ablation_migration`` — unpin the processes and let them hop cores
  while blocked: policy (i)'s wire hint goes stale, policy (ii)'s process
  locator keeps up.  Quantifies the "rescheduling may occur during I/O
  blocking" caveat of Sec. III.
* ``ablation_write_path`` — the paper scopes the problem to reads
  ("there is not a data locality issue associated with ... write
  operations"); running the write workload under both policies verifies
  that claim in the model.
"""

from __future__ import annotations

import dataclasses

from ..cluster.simulation import compare_policies, run_experiment
from ..config import ClusterConfig, CostModel
from ..units import KiB, MiB
from .base import ExperimentResult, register_grid_experiment
from .grids import fig5_cell_workload, nic_config

__all__: list[str] = []

_POLICIES = (
    "irqbalance",
    "round_robin",
    "dedicated",
    "least_loaded",
    "source_aware",
    "source_aware_process",
)


# -- ablation_policies -------------------------------------------------


def _grid_policies(scale: str) -> tuple[ClusterConfig, ...]:
    config = ClusterConfig(
        n_servers=48, client=nic_config(3), workload=fig5_cell_workload(scale)
    )
    return tuple(config.with_policy(policy) for policy in _POLICIES)


def _assemble_policies(scale, specs, metrics_list) -> ExperimentResult:
    results = {
        config.policy: metrics for config, metrics in zip(specs, metrics_list)
    }
    baseline_bw = results["irqbalance"].bandwidth
    rows = tuple(
        (
            policy,
            f"{metrics.bandwidth / MiB:.1f}",
            f"{metrics.bandwidth / baseline_bw - 1:+.2%}",
            f"{metrics.l2_miss_rate:.2%}",
            f"{metrics.clients[0].interrupt_spread:.0%}",
        )
        for policy, metrics in results.items()
    )
    sa = results["source_aware"].bandwidth
    sa_process = results["source_aware_process"].bandwidth
    conventional_best = max(
        results[p].bandwidth
        for p in ("irqbalance", "round_robin", "dedicated", "least_loaded")
    )
    return ExperimentResult(
        exp_id="ablation_policies",
        title="Sec. III policies — bandwidth at 48 servers, 3-Gigabit NIC",
        headers=(
            "policy",
            "MB/s",
            "vs irqbalance",
            "L2 miss rate",
            "cores hit by IRQs",
        ),
        rows=rows,
        paper={
            # Sec. III: "the expected performance difference between the
            # first two policies is trivial".
            "policy_i_vs_ii_gap_pct_max": 2.0,
            "source_aware_beats_conventional": 1.0,
        },
        measured={
            "policy_i_vs_ii_gap_pct_max": abs(sa / sa_process - 1) * 100,
            "source_aware_beats_conventional": (
                1.0 if min(sa, sa_process) > conventional_best else 0.0
            ),
        },
    )


# All registered scheduling policies on the Fig. 5 (48-server) point.
register_grid_experiment(
    "ablation_policies",
    grid=_grid_policies,
    run_point=run_experiment,
    assemble=_assemble_policies,
)


# -- ablation_migration ------------------------------------------------

_MIGRATION_PROBABILITIES = (0.0, 0.1, 0.3, 0.6)


def _grid_migration(scale: str) -> tuple[ClusterConfig, ...]:
    specs = []
    for probability in _MIGRATION_PROBABILITIES:
        workload = dataclasses.replace(
            fig5_cell_workload(scale), migrate_during_io=probability
        )
        config = ClusterConfig(
            n_servers=16, client=nic_config(3), workload=workload
        )
        specs.append(config.with_policy("source_aware"))
        specs.append(config.with_policy("source_aware_process"))
    return tuple(specs)


def _assemble_migration(scale, specs, metrics_list) -> ExperimentResult:
    rows = []
    gains = {}
    pairs = list(zip(metrics_list[0::2], metrics_list[1::2]))
    for probability, (policy_i, policy_ii) in zip(
        _MIGRATION_PROBABILITIES, pairs
    ):
        gain = policy_ii.bandwidth / policy_i.bandwidth - 1
        gains[probability] = gain
        rows.append(
            (
                f"{probability:.0%}",
                f"{policy_i.bandwidth / MiB:.1f}",
                f"{policy_ii.bandwidth / MiB:.1f}",
                f"{gain:+.2%}",
                policy_i.migrations,
                policy_ii.migrations,
            )
        )
    return ExperimentResult(
        exp_id="ablation_migration",
        title="Sec. III — policy (i) vs (ii) under migration during blocking I/O",
        headers=(
            "P(migrate)",
            "policy (i) MB/s",
            "policy (ii) MB/s",
            "(ii) gain",
            "(i) strip migrations",
            "(ii) strip migrations",
        ),
        rows=tuple(rows),
        paper={
            # "since the process migration rarely happens during a blocking
            # I/O, the expected performance difference ... is trivial"
            "gap_trivial_when_migration_rare_pct": 1.0,
        },
        measured={
            "gap_trivial_when_migration_rare_pct": abs(gains[0.0]) * 100,
            "gain_at_30pct_migration_pct": gains[0.3] * 100,
            "gain_at_60pct_migration_pct": gains[0.6] * 100,
        },
        notes=(
            "Policy (ii) carries zero strip migrations at any migration "
            "rate because the locator always targets the process's "
            "current core.",
        ),
    )


# Policy (i) vs (ii) as migration-during-I/O becomes common.
register_grid_experiment(
    "ablation_migration",
    grid=_grid_migration,
    run_point=run_experiment,
    assemble=_assemble_migration,
)


# -- ablation_write_path -----------------------------------------------

_WRITE_SERVER_COUNTS = (16, 48)


def _grid_write(scale: str) -> tuple[ClusterConfig, ...]:
    workload = dataclasses.replace(
        fig5_cell_workload(scale), operation="write"
    )
    return tuple(
        ClusterConfig(
            n_servers=n_servers, client=nic_config(3), workload=workload
        )
        for n_servers in _WRITE_SERVER_COUNTS
    )


def _assemble_write(scale, specs, comparisons) -> ExperimentResult:
    rows = []
    speedups = {}
    for n_servers, comparison in zip(_WRITE_SERVER_COUNTS, comparisons):
        speedup = comparison.bandwidth_speedup
        speedups[n_servers] = speedup
        rows.append(
            (
                n_servers,
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{speedup:+.2%}",
                comparison.baseline.migrations,
            )
        )
    return ExperimentResult(
        exp_id="ablation_write_path",
        title="Write path — interrupt scheduling cannot matter for writes",
        headers=(
            "servers",
            "irqbalance MB/s",
            "SAIs MB/s",
            "speed-up",
            "strip migrations",
        ),
        rows=tuple(rows),
        paper={"write_speedup_pct": 0.0},
        measured={
            "write_speedup_pct": max(abs(s) for s in speedups.values()) * 100,
        },
        notes=(
            "Only tiny acknowledgements interrupt the client on writes, so "
            "no data-bearing strips ever migrate between caches.",
        ),
    )


# The write workload under both policies: the paper's scoping claim.
register_grid_experiment(
    "ablation_write_path",
    grid=_grid_write,
    run_point=compare_policies,
    assemble=_assemble_write,
)


# -- ablation_stripsize ------------------------------------------------

_STRIP_SIZES = (16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB)


def _grid_stripsize(scale: str) -> tuple[ClusterConfig, ...]:
    return tuple(
        ClusterConfig(
            n_servers=32,
            client=nic_config(3),
            workload=fig5_cell_workload(scale),
            strip_size=strip_size,
        )
        for strip_size in _STRIP_SIZES
    )


def _assemble_stripsize(scale, specs, comparisons) -> ExperimentResult:
    """Sensitivity to the PVFS strip size (the paper fixes 64 KiB).

    Larger strips mean fewer, bigger interrupts: per-strip fixed costs
    amortize, but each migration holds the serialized fill path longer.
    Because both the migration time M and the NIC inter-arrival scale
    linearly with strip size, the *saturation structure* — and therefore
    the SAIs advantage — is roughly strip-size-invariant, which is why
    the paper could fix 64 KiB without loss of generality.
    """
    rows = []
    speedups = {}
    for strip_size, comparison in zip(_STRIP_SIZES, comparisons):
        speedups[strip_size] = comparison.bandwidth_speedup
        rows.append(
            (
                f"{strip_size // KiB}K",
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{comparison.bandwidth_speedup:+.2%}",
                comparison.baseline.migrations,
            )
        )
    client_bound = {
        size: value for size, value in speedups.items() if size >= 32 * KiB
    }
    return ExperimentResult(
        exp_id="ablation_stripsize",
        title="Ablation — SAIs advantage vs PVFS strip size (32 servers, 3 Gb)",
        headers=("strip", "irqbalance MB/s", "SAIs MB/s", "speed-up", "migrations"),
        rows=tuple(rows),
        paper={
            # Implicit in the paper's fixed 64 KiB: the conclusion should
            # not hinge on the strip size (within the client-bound regime).
            "speedup_positive_at_client_bound_sizes": 1.0,
        },
        measured={
            "speedup_positive_at_client_bound_sizes": (
                1.0 if all(s > 0.02 for s in client_bound.values()) else 0.0
            ),
            "speedup_spread_pct": (
                max(client_bound.values()) - min(client_bound.values())
            )
            * 100,
            "speedup_at_16k_pct": speedups[16 * KiB] * 100,
        },
        notes=(
            "At 16 KiB strips the 4x increase in per-strip server requests "
            "makes the storage tier (positioning costs) the bottleneck and "
            "the policies tie — the win needs the client to be the "
            "contended side, consistent with the rest of the analysis.",
        ),
    )


# Sensitivity to the PVFS strip size (the paper fixes 64 KiB).
register_grid_experiment(
    "ablation_stripsize",
    grid=_grid_stripsize,
    run_point=compare_policies,
    assemble=_assemble_stripsize,
)


# -- ablation_costmodel ------------------------------------------------

#: (c2c scale, label) rows of the cost-model sensitivity sweep.
_COSTMODEL_SCALES = ((8.0, "M~P"), (2.0, "M=4P"), (1.0, "M=8P (default)"))
_COSTMODEL_GIGABITS = (1, 3)


def _grid_costmodel(scale: str) -> tuple[ClusterConfig, ...]:
    workload = fig5_cell_workload(scale)
    base = CostModel()
    specs = []
    for c2c_scale, _ in _COSTMODEL_SCALES:
        costs = dataclasses.replace(base, c2c_rate=base.c2c_rate * c2c_scale)
        for gigabits in _COSTMODEL_GIGABITS:
            specs.append(
                ClusterConfig(
                    n_servers=48,
                    client=nic_config(gigabits),
                    workload=workload,
                    costs=costs,
                )
            )
    return tuple(specs)


def _assemble_costmodel(scale, specs, comparisons) -> ExperimentResult:
    rows = []
    speedups: dict[tuple[float, int], float] = {}
    comparison_iter = iter(zip(specs, comparisons))
    for c2c_scale, label in _COSTMODEL_SCALES:
        for gigabits in _COSTMODEL_GIGABITS:
            config, comparison = next(comparison_iter)
            costs = config.costs
            m_over_p = costs.strip_migration_time(
                65536
            ) / costs.strip_processing_time(65536)
            speedup = comparison.bandwidth_speedup
            speedups[(c2c_scale, gigabits)] = speedup
            rows.append(
                (
                    label,
                    f"{m_over_p:.1f}",
                    f"{gigabits} Gb",
                    f"{comparison.baseline.bandwidth / MiB:.1f}",
                    f"{comparison.treatment.bandwidth / MiB:.1f}",
                    f"{speedup:+.2%}",
                )
            )
    return ExperimentResult(
        exp_id="ablation_costmodel",
        title="Ablation — SAIs advantage vs M/P ratio and NIC bandwidth",
        headers=("cost model", "M/P", "NIC", "irqbalance MB/s", "SAIs MB/s", "speed-up"),
        rows=tuple(rows),
        paper={
            # Sec. VI: effectiveness "depends on the assumption ... that
            # the system has plenty of network bandwidth" and on M >> P.
            "advantage_needs_m_much_greater_p": 1.0,
            "advantage_needs_bandwidth": 1.0,
        },
        measured={
            "advantage_needs_m_much_greater_p": (
                1.0 if speedups[(1.0, 3)] > speedups[(8.0, 3)] + 0.02 else 0.0
            ),
            "advantage_needs_bandwidth": (
                1.0 if speedups[(1.0, 3)] > speedups[(1.0, 1)] + 0.02 else 0.0
            ),
        },
    )


# SAIs advantage vs the M/P ratio and the NIC bandwidth.
register_grid_experiment(
    "ablation_costmodel",
    grid=_grid_costmodel,
    run_point=compare_policies,
    assemble=_assemble_costmodel,
)
