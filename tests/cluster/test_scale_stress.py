"""Scale stress: big configurations complete and keep their invariants."""

import pytest

from repro import ClientConfig, ClusterConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.units import KiB, MiB


@pytest.mark.slow
def test_large_cluster_completes_with_invariants():
    """64 servers, 32 oversubscribed processes, 4 clients — one big run."""
    config = ClusterConfig(
        n_servers=64,
        n_clients=4,
        workload=WorkloadConfig(
            n_processes=32,  # 4x oversubscribed on 8 cores
            transfer_size=512 * KiB,
            file_size=1 * MiB,
        ),
    )
    sim = Simulation(config)
    metrics = sim.run()

    expected = 4 * 32 * 1 * MiB
    assert metrics.bytes_read == expected

    for client in sim.cluster.clients:
        # Conservation per client.
        handled = sum(d.handled for d in client.daemons)
        consumed = sum(client.cache.consume_by_location.values())
        assert handled == consumed
        assert client.pfs.in_flight == 0
        # No core is busy for a negative time or longer than the run.
        for core in client.cores:
            assert 0 <= core.busy_time <= metrics.elapsed


@pytest.mark.slow
def test_single_core_client_degenerate_case():
    """Everything lands on one core: source-aware == every other policy."""
    from repro import compare_policies

    config = ClusterConfig(
        n_servers=8,
        client=ClientConfig(n_cores=1, n_sockets=1),
        workload=WorkloadConfig(
            n_processes=2, transfer_size=256 * KiB, file_size=512 * KiB
        ),
    )
    comparison = compare_policies(config)
    assert comparison.baseline.migrations == 0
    assert comparison.treatment.migrations == 0
    assert abs(comparison.bandwidth_speedup) < 0.01


@pytest.mark.slow
def test_tiny_transfer_many_requests():
    """One-strip transfers: the degenerate no-parallel-I/O case."""
    config = ClusterConfig(
        n_servers=16,
        workload=WorkloadConfig(
            n_processes=4, transfer_size=64 * KiB, file_size=2 * MiB
        ),
    )
    metrics = Simulation(config).run()
    assert metrics.bytes_read == 4 * 2 * MiB
