"""Modern NIC-steering policy competition (beyond the paper's schemes).

The paper compares source-aware interrupt scheduling against the
conventional balancers of its era.  The design space that followed —
hardware flow hashing (RSS), NIC flow-affinity tables (Intel Flow
Director/ATR), software steering (Linux RPS/RFS) and interrupt-free
RDMA-style placement — attacks the same data-locality problem from
different layers.  Two experiments put them all on the paper's workload:

* ``steering_comparison`` — *every* registered policy on the Fig. 5
  48-server / 3-Gigabit point.  The grid enumerates the live policy
  registry, so registering a new policy without regenerating the golden
  snapshot fails loudly rather than silently shrinking coverage.
* ``steering_reorder_pathology`` — the Flow Director packet-reordering
  pathology (arXiv 1106.0443): with MSS-segmented flows and consumer
  migration, ATR repoints the flow's core while segments are in flight
  and one strip's segments complete on two cores out of order.  TCP
  sees out-of-order segments and duplicate ACKs under ``flow_director``
  while ``rss`` — same workload, same hash — stays at exactly zero.
"""

from __future__ import annotations

from ..cluster.simulation import run_experiment
from ..config import ClusterConfig, NetworkConfig, WorkloadConfig
from ..core.policy import available_policies
from ..units import KiB, MiB
from .base import ExperimentResult, register_grid_experiment, resolve_scale
from .grids import fig5_cell_workload, nic_config

__all__: list[str] = []

#: Policies that bypass the interrupt path entirely (no APIC deliveries).
_INTERRUPT_FREE = ("rdma_zerointr",)


# -- steering_comparison -----------------------------------------------


def _grid_comparison(scale: str) -> tuple[ClusterConfig, ...]:
    """One Fig. 5 point per *registered* policy.

    Enumerating the registry (not a frozen list) is deliberate: a new
    policy immediately appears in this grid, so the golden snapshot and
    the coverage test in ``tests/core/test_policy_invariants.py`` both
    fail until the new policy's rows are generated and reviewed.
    """
    config = ClusterConfig(
        n_servers=48, client=nic_config(3), workload=fig5_cell_workload(scale)
    )
    return tuple(
        config.with_policy(policy) for policy in available_policies()
    )


def _assemble_comparison(scale, specs, metrics_list) -> ExperimentResult:
    results = {
        config.policy: metrics for config, metrics in zip(specs, metrics_list)
    }
    baseline_bw = results["irqbalance"].bandwidth
    rows = tuple(
        (
            policy,
            f"{metrics.bandwidth / MiB:.1f}",
            f"{metrics.bandwidth / baseline_bw - 1:+.2%}",
            metrics.migrations,
            metrics.rps_handoffs,
            metrics.steering_migrations,
            sum(metrics.clients[0].interrupts_per_core),
        )
        for policy, metrics in results.items()
    )
    rdma = results["rdma_zerointr"]
    rps = results["rps_rfs"]
    interrupting_best = max(
        m.bandwidth
        for policy, m in results.items()
        if policy not in _INTERRUPT_FREE
    )
    return ExperimentResult(
        exp_id="steering_comparison",
        title=(
            "NIC-steering policy competition — Fig. 5 point, 48 servers, "
            "3-Gigabit NIC"
        ),
        headers=(
            "policy",
            "MB/s",
            "vs irqbalance",
            "strip migrations",
            "RPS handoffs",
            "flow repoints",
            "interrupts",
        ),
        rows=rows,
        paper={
            # RDMA-style NIC placement is the zero-interrupt upper bound:
            # no strip ever lands in the wrong cache, and nothing
            # interrupting should beat it.
            "rdma_zerointr_strip_migrations": 0.0,
            "rdma_zerointr_interrupts": 0.0,
            # RFS steers the softirq to the consumer before protocol
            # processing, so the data never needs a c2c migration either
            # — it pays per-packet handoffs instead.
            "rps_rfs_strip_migrations": 0.0,
        },
        measured={
            "rdma_zerointr_strip_migrations": float(rdma.migrations),
            "rdma_zerointr_interrupts": float(
                sum(rdma.clients[0].interrupts_per_core)
            ),
            "rps_rfs_strip_migrations": float(rps.migrations),
            "rps_rfs_handoffs": float(rps.rps_handoffs),
            "rdma_vs_best_interrupting_pct": (
                rdma.bandwidth / interrupting_best - 1
            )
            * 100,
        },
        notes=(
            "The grid enumerates the live policy registry: register a new "
            "policy and this experiment's golden goes stale until "
            "regenerated.",
        ),
    )


# Every registered policy on the Fig. 5 (48-server, 3-Gigabit) point.
register_grid_experiment(
    "steering_comparison",
    grid=_grid_comparison,
    run_point=run_experiment,
    assemble=_assemble_comparison,
)


# -- steering_reorder_pathology ----------------------------------------

#: The two hardware-steering schemes whose only difference is the
#: affinity table: same Toeplitz hash, but ATR lets TX traffic repoint it.
_PATHOLOGY_POLICIES = ("rss", "flow_director")


def _grid_pathology(scale: str) -> tuple[ClusterConfig, ...]:
    file_size = {"quick": 2 * MiB, "default": 4 * MiB, "full": 16 * MiB}[
        resolve_scale(scale)
    ]
    workload = WorkloadConfig(
        n_processes=8,
        transfer_size=512 * KiB,
        file_size=file_size,
        # Consumers hop cores while blocked: every hop re-samples the
        # flow's TX core, repointing the ATR table mid-flight.
        migrate_during_io=0.5,
    )
    config = ClusterConfig(
        n_servers=8,
        client=nic_config(3),
        # Standard-frame MSS: each 64 KiB strip travels as 46 segments,
        # each steered independently — the wider the segment train, the
        # more reordering windows an ATR repoint can land in.
        network=NetworkConfig(mss=1448),
        workload=workload,
    )
    return tuple(
        config.with_policy(policy) for policy in _PATHOLOGY_POLICIES
    )


def _assemble_pathology(scale, specs, metrics_list) -> ExperimentResult:
    results = {
        config.policy: metrics for config, metrics in zip(specs, metrics_list)
    }
    rss = results["rss"]
    fdir = results["flow_director"]
    rows = tuple(
        (
            policy,
            f"{metrics.bandwidth / MiB:.1f}",
            metrics.out_of_order_segments,
            metrics.dup_acks,
            metrics.fast_retransmits,
            metrics.steering_migrations,
        )
        for policy, metrics in results.items()
    )
    return ExperimentResult(
        exp_id="steering_reorder_pathology",
        title=(
            "Flow Director ATR reordering pathology — MSS-segmented flows "
            "with consumer migration (8 servers)"
        ),
        headers=(
            "policy",
            "MB/s",
            "out-of-order segs",
            "dup ACKs",
            "fast rtx",
            "flow repoints",
        ),
        rows=rows,
        paper={
            # arXiv 1106.0443: ATR's flow-table repoints reorder packets
            # of in-flight flows; pure RSS hashing cannot (one flow, one
            # core, FIFO softirq queue).
            "flow_director_sees_reordering": 1.0,
            "rss_reordering_free": 1.0,
        },
        measured={
            "flow_director_sees_reordering": (
                1.0 if fdir.out_of_order_segments > 0 else 0.0
            ),
            "rss_reordering_free": (
                1.0 if rss.out_of_order_segments == 0 else 0.0
            ),
            "flow_director_out_of_order": float(fdir.out_of_order_segments),
            "flow_director_dup_acks": float(fdir.dup_acks),
            "rss_out_of_order": float(rss.out_of_order_segments),
        },
        notes=(
            "Reordering is pure observability: assembly buffers any "
            "order, so both policies account identical goodput bytes.",
        ),
    )


# RSS vs Flow Director on the segmented-flow + migration workload.
register_grid_experiment(
    "steering_reorder_pathology",
    grid=_grid_pathology,
    run_point=run_experiment,
    assemble=_assemble_pathology,
)
