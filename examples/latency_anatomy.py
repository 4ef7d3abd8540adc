#!/usr/bin/env python
"""Latency anatomy: where a strip's time goes under each policy.

Records every strip's span tree, reads its lifecycle stamps (issued ->
served -> received -> handled -> merged) off it, and prints the
per-stage mean latency for irqbalance and SAIs.  The stages map onto
the paper's eq. (1) decomposition: the issued..received span is TR
(servers + network, policy-independent), the received..handled span is
interrupt handling (P plus queueing), and the handled..merged span
carries the migration cost TM that SAIs eliminates.

Run:  python examples/latency_anatomy.py
"""

from repro import ClusterConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.metrics import render_table
from repro.obs import SpanRecorder
from repro.obs.analysis import (
    LIFECYCLE_STAGES,
    breakdown_from_spans,
    model_from_recorder,
)
from repro.units import MiB, format_time


def traced_breakdown(policy: str):
    config = ClusterConfig(
        n_servers=32,
        policy=policy,
        workload=WorkloadConfig(
            n_processes=8, transfer_size=1 * MiB, file_size=8 * MiB
        ),
    )
    recorder = SpanRecorder()
    metrics = Simulation(config, spans=recorder).run()
    return breakdown_from_spans(model_from_recorder(recorder)), metrics


def main() -> None:
    irq_breakdown, irq_metrics = traced_breakdown("irqbalance")
    sais_breakdown, sais_metrics = traced_breakdown("source_aware")

    rows = []
    for a, b in zip(LIFECYCLE_STAGES, LIFECYCLE_STAGES[1:]):
        irq_mean = irq_breakdown.mean_of(a, b)
        sais_mean = sais_breakdown.mean_of(a, b)
        rows.append(
            (
                f"{a} -> {b}",
                format_time(irq_mean),
                format_time(sais_mean),
                f"{(sais_mean - irq_mean) / irq_mean:+.0%}" if irq_mean else "-",
            )
        )
    rows.append(
        (
            "TOTAL",
            format_time(irq_breakdown.mean_total),
            format_time(sais_breakdown.mean_total),
            "",
        )
    )

    print(
        render_table(
            ("stage", "irqbalance", "SAIs", "SAIs delta"),
            rows,
            title="Mean per-strip latency by pipeline stage (32 servers, 3 Gb)",
        )
    )
    print()
    print(
        f"bandwidth: irqbalance {irq_metrics.bandwidth / MiB:.1f} MB/s, "
        f"SAIs {sais_metrics.bandwidth / MiB:.1f} MB/s "
        f"({sais_metrics.bandwidth / irq_metrics.bandwidth - 1:+.1%})"
    )
    print(
        "Reading the table: received->handled is interrupt handling (P "
        "plus softirq queueing) and handled->merged carries the paper's "
        "TM — the serialized cache-to-cache migration that source-aware "
        "delivery removes almost entirely.  SAIs' larger served->received "
        "span is the flip side of its higher throughput: it pushes the "
        "NIC to saturation, so strips queue on the wire instead of in "
        "the migration path."
    )


if __name__ == "__main__":
    main()
