"""Integration tests: the assembled cluster end to end."""

import pytest

from repro import ClusterConfig, Simulation, WorkloadConfig, run_experiment
from repro.cluster import build_cluster
from repro.errors import SimulationError
from repro.units import KiB, MiB


def small_config(**kwargs):
    defaults = dict(
        n_servers=8,
        workload=WorkloadConfig(
            n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
        ),
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


class TestBuildCluster:
    def test_components_present(self):
        cluster = build_cluster(small_config())
        assert len(cluster.clients) == 1
        assert len(cluster.servers) == 8
        assert len(cluster.clients[0].cores) == 8

    def test_sais_components_only_with_hint_policy(self):
        stock = build_cluster(small_config(policy="irqbalance")).clients[0]
        sais = build_cluster(small_config(policy="source_aware")).clients[0]
        assert stock.hint_messager is None
        assert stock.src_parser is None
        assert stock.nic.driver_hook is None
        assert sais.hint_messager is not None
        assert sais.src_parser is not None
        assert sais.nic.driver_hook is not None

    def test_servers_have_capsuler_only_under_sais(self):
        stock = build_cluster(small_config(policy="irqbalance"))
        sais = build_cluster(small_config(policy="source_aware"))
        assert all(s.capsuler is None for s in stock.servers)
        assert all(s.capsuler is not None for s in sais.servers)

    def test_multi_client(self):
        cluster = build_cluster(small_config(n_clients=3))
        assert len(cluster.clients) == 3
        # Each client programs its own policy instance.
        policies = {id(c.policy) for c in cluster.clients}
        assert len(policies) == 3


class TestRunExperiment:
    def test_reads_all_bytes(self):
        config = small_config()
        metrics = run_experiment(config)
        expected = (
            config.workload.n_processes * config.workload.file_size
        )
        assert metrics.bytes_read == expected
        assert metrics.bandwidth > 0
        assert metrics.elapsed > 0

    def test_simulation_is_single_shot(self):
        sim = Simulation(small_config())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_deterministic_across_runs(self):
        a = run_experiment(small_config(seed=5))
        b = run_experiment(small_config(seed=5))
        assert a.elapsed == b.elapsed
        assert a.bandwidth == b.bandwidth
        assert a.l2_miss_rate == b.l2_miss_rate

    def test_seed_changes_outcome(self):
        a = run_experiment(small_config(seed=5))
        b = run_experiment(small_config(seed=6))
        assert a.elapsed != b.elapsed

    def test_all_policies_complete(self):
        from repro import available_policies

        for policy in available_policies():
            metrics = run_experiment(small_config(policy=policy))
            assert metrics.bytes_read > 0, policy

    def test_source_aware_has_zero_migrations(self):
        metrics = run_experiment(small_config(policy="source_aware"))
        assert metrics.migrations == 0
        locations = metrics.clients[0].consume_locations
        assert locations["remote"] == 0

    def test_irqbalance_scatters_interrupts(self):
        metrics = run_experiment(small_config(policy="irqbalance"))
        assert metrics.clients[0].interrupt_spread > 0.5

    def test_source_aware_concentrates_interrupts(self):
        config = small_config(policy="source_aware")
        metrics = run_experiment(config)
        per_core = metrics.clients[0].interrupts_per_core
        active = sum(1 for n in per_core if n > 0)
        # Interrupts land only on the cores running the two processes.
        assert active == config.workload.n_processes

    def test_dedicated_hits_one_core(self):
        metrics = run_experiment(small_config(policy="dedicated"))
        per_core = metrics.clients[0].interrupts_per_core
        assert sum(1 for n in per_core if n > 0) == 1
        assert per_core[-1] > 0

    def test_multiclient_aggregate_bandwidth(self):
        single = run_experiment(small_config(n_clients=1))
        double = run_experiment(small_config(n_clients=2))
        assert double.bytes_read == 2 * single.bytes_read
        # Two clients on uncontended servers should get more aggregate
        # bandwidth than one (not necessarily double).
        assert double.bandwidth > single.bandwidth

    def test_unaligned_transfer_size_completes(self):
        config = small_config(
            workload=WorkloadConfig(
                n_processes=1, transfer_size=96 * KiB, file_size=960 * KiB
            )
        )
        metrics = run_experiment(config)
        assert metrics.bytes_read == 960 * KiB


class TestInvariants:
    def test_conservation_strips_handled_equals_consumed(self):
        config = small_config()
        sim = Simulation(config)
        sim.run()
        client = sim.cluster.clients[0]
        handled = sum(d.handled for d in client.daemons)
        consumed = sum(client.cache.consume_by_location.values())
        assert handled == consumed
        strips_expected = (
            config.workload.n_processes
            * config.workload.file_size
            // config.strip_size
        )
        assert handled == strips_expected

    def test_nic_bytes_match_payload(self):
        config = small_config()
        sim = Simulation(config)
        metrics = sim.run()
        client = sim.cluster.clients[0]
        assert client.nic.bytes_received == metrics.bytes_read

    def test_no_requests_left_in_flight(self):
        sim = Simulation(small_config())
        sim.run()
        assert sim.cluster.clients[0].pfs.in_flight == 0

    def test_utilization_bounded(self):
        metrics = run_experiment(small_config())
        assert 0 < metrics.cpu_utilization <= 1.0

    def test_miss_rate_bounded(self):
        metrics = run_experiment(small_config())
        assert 0 <= metrics.l2_miss_rate <= 1.0
