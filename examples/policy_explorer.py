#!/usr/bin/env python
"""Policy explorer: every registered interrupt-scheduling policy side by side.

Runs the same IOR workload under every registered policy — the paper's
Sec. III taxonomy: (i) request core [SAIs], (ii) current process core,
(iii) least-loaded, (iv) dedicated, plus round-robin, the irqbalance
baseline and the modern NIC-steering schemes — and shows how interrupt
placement drives data locality.

Run:  python examples/policy_explorer.py
"""

from repro import (
    ClientConfig,
    ClusterConfig,
    Simulation,
    WorkloadConfig,
    available_policies,
)
from repro.metrics import render_table
from repro.units import MiB

#: Policies whose per-core busy shares are printed.
HIGHLIGHTED = ("irqbalance", "source_aware", "dedicated")


def run_policy(config):
    """Run one policy; returns the client's metrics and each core's busy
    share of the run (``core.busy_time / elapsed``)."""
    sim = Simulation(config)
    metrics = sim.run()
    cores = sim.cluster.clients[0].cores
    shares = [core.busy_time / metrics.elapsed for core in cores]
    return metrics.clients[0], shares


def main() -> None:
    config = ClusterConfig(
        n_servers=32,
        client=ClientConfig(nic_ports=3),
        workload=WorkloadConfig(
            n_processes=8, transfer_size=1 * MiB, file_size=8 * MiB
        ),
    )

    rows = []
    busy_rows = []
    for policy in available_policies():
        client, shares = run_policy(config.with_policy(policy))
        if policy in HIGHLIGHTED:
            busy_rows.append((policy, *(f"{share:.0%}" for share in shares)))
        rows.append(
            (
                policy,
                f"{client.bandwidth / MiB:.1f}",
                f"{client.l2_miss_rate:.2%}",
                f"{client.consume_locations['local']}",
                f"{client.consume_locations['remote']}",
                f"{client.consume_locations['memory']}",
                f"{client.interrupt_spread:.0%}",
            )
        )

    print(
        render_table(
            (
                "policy",
                "MB/s",
                "L2 miss",
                "local",
                "remote",
                "evicted",
                "cores hit",
            ),
            rows,
            title="Where each policy leaves the data (32 servers, 3-Gigabit NIC)",
        )
    )
    print()
    print(
        "The 'local' column is the whole story: source-aware policies "
        "deliver every strip to the consuming core's cache; the balanced "
        "policies leave almost everything remote and pay a serialized "
        "cache-to-cache migration per strip."
    )
    print()
    n_cores = config.client.n_cores
    print(
        render_table(
            ("policy", *(f"core {i}" for i in range(n_cores))),
            busy_rows,
            title="Where the work landed: each core's busy share of the run",
        )
    )


if __name__ == "__main__":
    main()
