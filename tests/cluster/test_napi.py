"""NAPI-style adaptive coalescing through the full cluster path."""

from repro import (
    ClientConfig,
    ClusterConfig,
    NetworkConfig,
    WorkloadConfig,
    compare_policies,
)
from repro.cluster.simulation import Simulation
from repro.hw.nic import Nic
from repro.units import KiB, MiB


def config(napi, policy="irqbalance", nic_ports=3):
    return ClusterConfig(
        n_servers=16,
        policy=policy,
        client=ClientConfig(napi=napi, nic_ports=nic_ports),
        workload=WorkloadConfig(
            n_processes=4, transfer_size=512 * KiB, file_size=2 * MiB
        ),
    )


def pressured_config(napi):
    """The standard 8-process figure workload, where the gap is large."""
    return ClusterConfig(
        n_servers=32,
        client=ClientConfig(napi=napi),
        workload=WorkloadConfig(
            n_processes=8, transfer_size=1 * MiB, file_size=4 * MiB
        ),
    )


STRIPS = 4 * 2 * MiB // (64 * KiB)


class TestNapi:
    def test_all_bytes_delivered(self):
        metrics = Simulation(config(napi=True)).run()
        assert metrics.bytes_read == 4 * 2 * MiB

    def test_fewer_interrupts_than_packets_under_load(self):
        plain = Simulation(config(napi=False))
        plain.run()
        napi = Simulation(config(napi=True))
        napi.run()
        plain_nic = plain.cluster.clients[0].nic
        napi_nic = napi.cluster.clients[0].nic
        assert plain_nic.interrupts_raised == STRIPS
        assert napi_nic.interrupts_raised < STRIPS
        # Every packet still got processed.
        assert napi_nic.packets_received == STRIPS

    def test_all_strips_handled_exactly_once(self):
        sim = Simulation(config(napi=True))
        sim.run()
        client = sim.cluster.clients[0]
        handled = sum(d.handled for d in client.daemons)
        assert handled == STRIPS
        assert client.nic.pending_packets == 0

    def test_mss1500_poll_reschedules_with_packets_pending(self, monkeypatch):
        # The napi_mtu1500 point of tests/obs/test_zero_cost.py: ~44-segment
        # strip trains outrun one poll's budget, so the softirq yields with
        # packets still queued and raises a fresh poll.
        pending = []
        reschedule = Nic.napi_reschedule

        def counted(nic):
            pending.append(nic.pending_packets)
            reschedule(nic)

        monkeypatch.setattr(Nic, "napi_reschedule", counted)
        Simulation(
            ClusterConfig(
                n_servers=8,
                policy="source_aware",
                client=ClientConfig(napi=True),
                network=NetworkConfig(mss=1500),
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=512 * KiB, file_size=2 * MiB
                ),
            )
        ).run()
        assert any(count > 0 for count in pending), pending

    def test_napi_with_sais_still_wins(self):
        result = compare_policies(pressured_config(napi=True))
        assert result.bandwidth_speedup > 0.05

    def test_napi_preserves_the_gap_roughly(self):
        """Batched polls concentrate the baseline's handling, shaving a
        little off the SAIs advantage without erasing it."""
        plain = compare_policies(pressured_config(napi=False))
        napi = compare_policies(pressured_config(napi=True))
        assert 0 < napi.bandwidth_speedup <= plain.bandwidth_speedup + 0.03
