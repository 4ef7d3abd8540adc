"""Metamorphic system-level relations.

Rather than pinning absolute numbers, these assert how the *whole system*
must respond to config changes — the relations a reviewer would use to
sanity-check the model.
"""

import pytest

from repro import (
    ClientConfig,
    ClusterConfig,
    CostModel,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
    compare_policies,
    run_experiment,
)
from repro.units import KiB, MiB


def base_config(**kwargs):
    defaults = dict(
        n_servers=16,
        workload=WorkloadConfig(
            n_processes=8, transfer_size=1 * MiB, file_size=4 * MiB
        ),
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


class TestBandwidthMonotonicity:
    def test_more_nic_never_hurts(self):
        one = run_experiment(base_config(client=ClientConfig(nic_ports=1)))
        three = run_experiment(base_config(client=ClientConfig(nic_ports=3)))
        assert three.bandwidth >= one.bandwidth * 0.98

    def test_more_servers_never_hurt_sais(self):
        few = run_experiment(base_config(n_servers=8, policy="source_aware"))
        many = run_experiment(base_config(n_servers=32, policy="source_aware"))
        assert many.bandwidth >= few.bandwidth * 0.98

    def test_faster_disks_never_hurt(self):
        slow = run_experiment(
            base_config(server=ServerConfig(disk_seek=8e-3))
        )
        fast = run_experiment(
            base_config(server=ServerConfig(disk_seek=1e-3))
        )
        assert fast.bandwidth >= slow.bandwidth * 0.98

    def test_compute_phase_costs_bandwidth(self):
        workload = WorkloadConfig(
            n_processes=2, transfer_size=512 * KiB, file_size=2 * MiB
        )
        with_compute = run_experiment(base_config(workload=workload))
        # A near-free encrypt phase: what the run is worth without it.
        without = run_experiment(
            base_config(workload=workload, costs=CostModel(encrypt_rate=3e12))
        )
        assert without.bandwidth >= with_compute.bandwidth


class TestSpeedupResponses:
    def test_cheaper_migration_shrinks_the_win(self):
        expensive = compare_policies(base_config())
        cheap_costs = CostModel(c2c_rate=2.0e9, mem_fetch_rate=2.0e9)
        cheap = compare_policies(base_config(costs=cheap_costs))
        assert cheap.bandwidth_speedup < expensive.bandwidth_speedup

    def test_oversubscribed_switch_caps_everything(self):
        # A 1-Gigabit backplane makes the network the bottleneck (TR
        # dominates) and the policy gap collapses.
        choked = compare_policies(
            base_config(
                network=NetworkConfig(switch_bandwidth=125_000_000.0)
            )
        )
        assert abs(choked.bandwidth_speedup) < 0.05

    def test_sais_never_loses_meaningfully(self):
        for n_servers in (8, 16, 32):
            comparison = compare_policies(base_config(n_servers=n_servers))
            assert comparison.bandwidth_speedup > -0.05


class TestConservationAcrossConfigs:
    @pytest.mark.parametrize("policy", ["irqbalance", "source_aware", "dedicated"])
    def test_bytes_conserved(self, policy):
        config = base_config(policy=policy)
        metrics = run_experiment(config)
        expected = config.workload.n_processes * config.workload.file_size
        assert metrics.bytes_read == expected

    def test_unhalted_cycles_scale_with_clock(self):
        slow = run_experiment(
            base_config(client=ClientConfig(clock_hz=1.35e9))
        )
        fast = run_experiment(
            base_config(client=ClientConfig(clock_hz=2.7e9))
        )
        # Same busy seconds, double the clock -> ~double the cycles.
        assert fast.unhalted_cycles == pytest.approx(
            2 * slow.unhalted_cycles, rel=0.02
        )
