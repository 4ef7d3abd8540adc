"""Two-socket NUMA topology: intra- vs cross-socket migration costs."""

import pytest

from repro import ClientConfig, ClusterConfig, CostModel, WorkloadConfig
from repro.cluster.simulation import Simulation, run_experiment
from repro.errors import ConfigError
from repro.units import KiB, MiB

from ..fixed_core import FixedCorePolicy


class TestTopologyConfig:
    def test_default_two_quad_core_sockets(self):
        client = ClientConfig()
        assert client.n_sockets == 2
        assert client.cores_per_socket == 4
        assert client.socket_of(0) == 0
        assert client.socket_of(3) == 0
        assert client.socket_of(4) == 1
        assert client.socket_of(7) == 1

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigError):
            ClientConfig(n_cores=6, n_sockets=4)

    def test_socket_of_bounds(self):
        with pytest.raises(ConfigError):
            ClientConfig().socket_of(8)

    def test_single_socket_topology(self):
        client = ClientConfig(n_cores=8, n_sockets=1)
        assert all(client.socket_of(i) == 0 for i in range(8))


def intra_socket_migration_time(costs, strip):
    """A same-socket strip migration: the shared-L3 rate the merge picks."""
    return costs.c2c_latency + strip / costs.intra_socket_c2c_rate


class TestMigrationCosts:
    def test_intra_socket_cheaper_than_cross(self):
        costs = CostModel()
        strip = 64 * KiB
        assert intra_socket_migration_time(costs, strip) < (
            0.6 * costs.strip_migration_time(strip)
        )

    def test_calibrated_mean_preserved(self):
        """(3/7) intra + (4/7) cross ~ the DESIGN.md 250 us mean M."""
        costs = CostModel()
        strip = 64 * KiB
        mean = (3 / 7) * intra_socket_migration_time(costs, strip) + (
            4 / 7
        ) * costs.strip_migration_time(strip)
        assert mean == pytest.approx(250e-6, rel=0.08)


class TestNumaInSimulation:
    def test_same_socket_handling_is_faster(self):
        """Consumer on core 0: handling on core 3 (same socket) must beat
        handling on core 7 (other socket)."""
        from repro.cluster.builder import build_cluster
        from repro.workloads import spawn_ior_processes
        from repro.des import AllOf

        def run_with_dedicated(core_index):
            config = ClusterConfig(
                n_servers=8,
                policy="dedicated",
                workload=WorkloadConfig(
                    n_processes=1, transfer_size=512 * KiB, file_size=2 * MiB
                ),
            )
            cluster = build_cluster(config)
            # Pin every interrupt to the requested handler core.
            for client in cluster.clients:
                client.ioapic.policy = FixedCorePolicy(core_index)
            procs = spawn_ior_processes(
                cluster.clients[0], config.workload
            )
            cluster.env.run(until=AllOf(cluster.env, procs))
            return cluster.env.now

        same_socket_time = run_with_dedicated(3)
        cross_socket_time = run_with_dedicated(7)
        assert same_socket_time < cross_socket_time

    def test_sais_unaffected_by_topology(self):
        wide = ClientConfig(n_sockets=1)
        config = ClusterConfig(
            n_servers=16,
            policy="source_aware",
            workload=WorkloadConfig(
                n_processes=4, transfer_size=512 * KiB, file_size=2 * MiB
            ),
        )
        two_socket = run_experiment(config)
        one_socket = run_experiment(config.replace(client=wide))
        # No migrations under SAIs, so socket layout changes nothing.
        assert two_socket.bandwidth == pytest.approx(
            one_socket.bandwidth, rel=0.02
        )

    def test_migration_categories_present_under_irqbalance(self):
        sim = Simulation(
            ClusterConfig(
                n_servers=16,
                policy="irqbalance",
                workload=WorkloadConfig(
                    n_processes=8, transfer_size=1 * MiB, file_size=4 * MiB
                ),
            )
        )
        sim.run()
        busy = {}
        for core in sim.cluster.clients[0].cores:
            for k, v in core.busy_by_category.items():
                busy[k] = busy.get(k, 0.0) + v
        assert busy.get("migration", 0) > 0
