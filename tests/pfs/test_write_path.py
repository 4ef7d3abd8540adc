"""The parallel-I/O write path and the paper's scoping claim.

Sec. I: "there is not a data locality issue associated with interrupt
scheduling in parallel I/O write operations, [so] our study focuses on
parallel I/O read".  These tests exercise the implemented write path and
verify that claim holds in the model.
"""

import pytest

from repro import ClusterConfig, WorkloadConfig, compare_policies, run_experiment
from repro.cluster.simulation import Simulation
from repro.units import KiB, MiB


def write_config(**kwargs):
    defaults = dict(
        n_servers=8,
        workload=WorkloadConfig(
            n_processes=4,
            transfer_size=512 * KiB,
            file_size=2 * MiB,
            operation="write",
        ),
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


class TestWritePath:
    def test_writes_complete_and_move_all_bytes(self):
        config = write_config()
        metrics = run_experiment(config)
        assert metrics.bytes_read == (
            config.workload.n_processes * config.workload.file_size
        )

    def test_acks_do_not_install_cache_strips(self):
        sim = Simulation(write_config())
        sim.run()
        client = sim.cluster.clients[0]
        # No data-bearing strips ever entered a client cache.
        assert all(len(cache) == 0 for cache in client.cache.caches)

    def test_no_migrations_on_writes(self):
        for policy in ("irqbalance", "source_aware", "round_robin"):
            metrics = run_experiment(write_config(policy=policy))
            assert metrics.migrations == 0, policy

    def test_policies_tie_on_writes(self):
        comparison = compare_policies(write_config())
        assert abs(comparison.bandwidth_speedup) < 0.01

    def test_server_disks_eventually_receive_data(self):
        sim = Simulation(write_config())
        sim.run()
        # Flushes are asynchronous; drain any remaining disk activity.
        sim.cluster.env.run()
        flushed = sum(
            server.disk.bytes_written for server in sim.cluster.servers
        )
        expected = (
            sim.config.workload.n_processes * sim.config.workload.file_size
        )
        assert flushed == expected

    def test_ack_interrupts_still_traverse_policy(self):
        sim = Simulation(write_config(policy="dedicated"))
        sim.run()
        client = sim.cluster.clients[0]
        per_core = client.ioapic.deliveries
        # Dedicated policy funnels all ack interrupts to the last core.
        assert sum(1 for n in per_core if n > 0) == 1
        assert per_core[-1] > 0

    def test_write_uses_client_uplink_not_rx(self):
        sim = Simulation(write_config())
        metrics = sim.run()
        client = sim.cluster.clients[0]
        # Client rx only saw tiny acks, far less than the data volume.
        assert client.nic.bytes_received < 0.05 * metrics.bytes_read


class TestMigrationAblation:
    def test_policy_ii_immune_to_migration(self):
        config = write_config(
            policy="source_aware_process",
            workload=WorkloadConfig(
                n_processes=4,
                transfer_size=512 * KiB,
                file_size=4 * MiB,
                migrate_during_io=0.5,
            ),
        )
        metrics = run_experiment(config)
        assert metrics.migrations == 0

    def test_policy_i_pays_for_migration(self):
        base_workload = dict(
            n_processes=4, transfer_size=512 * KiB, file_size=4 * MiB
        )
        pinned = run_experiment(
            write_config(
                policy="source_aware",
                workload=WorkloadConfig(**base_workload, migrate_during_io=0.0),
            )
        )
        hopping = run_experiment(
            write_config(
                policy="source_aware",
                workload=WorkloadConfig(**base_workload, migrate_during_io=0.5),
            )
        )
        assert pinned.migrations == 0
        assert hopping.migrations > 0

    def test_policy_ii_beats_policy_i_under_migration(self):
        workload = WorkloadConfig(
            n_processes=8,
            transfer_size=1 * MiB,
            file_size=8 * MiB,
            migrate_during_io=0.4,
        )
        config = ClusterConfig(n_servers=16, workload=workload)
        policy_i = run_experiment(config.with_policy("source_aware"))
        policy_ii = run_experiment(config.with_policy("source_aware_process"))
        assert policy_ii.bandwidth > policy_i.bandwidth


class TestAdaptivePolicy:
    def test_behaves_like_source_aware_at_low_load(self):
        config = ClusterConfig(
            n_servers=16,
            workload=WorkloadConfig(
                n_processes=4, transfer_size=512 * KiB, file_size=2 * MiB
            ),
        )
        adaptive = run_experiment(config.with_policy("adaptive_source_aware"))
        source = run_experiment(config.with_policy("source_aware"))
        assert adaptive.bandwidth == pytest.approx(source.bandwidth, rel=0.05)
        assert adaptive.migrations <= source.migrations + 5

    def test_counts_locality_vs_fallback_decisions(self):
        from repro.core import AdaptiveSourceAwarePolicy

        sim = Simulation(
            ClusterConfig(
                n_servers=8,
                policy="adaptive_source_aware",
                workload=WorkloadConfig(
                    n_processes=2, transfer_size=256 * KiB, file_size=512 * KiB
                ),
            )
        )
        sim.run()
        policy = sim.cluster.clients[0].policy
        assert isinstance(policy, AdaptiveSourceAwarePolicy)
        assert policy.locality_hits + policy.balance_fallbacks > 0
        assert policy.locality_hits > policy.balance_fallbacks
