"""Differential tests for the modern NIC-steering policies.

* rss vs flow_director A/B on the reordering-pathology workload: the
  goodput accounting is identical (reordering is pure observability),
  but only flow_director's ATR table repoints produce out-of-order
  deliveries, dup-ACKs and fast retransmits.
* rdma_zerointr is the zero-interrupt upper bound: zero interrupts
  raised anywhere and strictly fewer calendar events processed than any
  interrupting policy on the same point.
* The unknown-policy error message is format-locked and uniform across
  every entry surface (factory, config construction, trace CLI).
"""

import pytest

from repro.cli import main
from repro.cluster.simulation import Simulation
from repro.config import ClusterConfig, NetworkConfig, WorkloadConfig
from repro.core.policy import available_policies, create_policy
from repro.errors import ConfigError
from repro.units import KiB, MiB


def pathology_config(policy: str) -> ClusterConfig:
    """The steering_reorder_pathology quick point (see experiments)."""
    return ClusterConfig(
        n_servers=8,
        network=NetworkConfig(mss=1448),
        workload=WorkloadConfig(
            n_processes=8,
            transfer_size=512 * KiB,
            file_size=2 * MiB,
            migrate_during_io=0.5,
        ),
        policy=policy,
    )


def small_config(policy: str) -> ClusterConfig:
    """A cheap single-policy point for event-count comparisons."""
    return ClusterConfig(
        n_servers=4,
        workload=WorkloadConfig(
            n_processes=4, transfer_size=256 * KiB, file_size=1 * MiB
        ),
        policy=policy,
    )


class TestRssVsFlowDirector:
    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for policy in ("rss", "flow_director"):
            out[policy] = Simulation(pathology_config(policy)).run()
        return out

    def test_goodput_accounting_identical(self, runs):
        rss, fdir = runs["rss"], runs["flow_director"]
        assert rss.bytes_read == fdir.bytes_read
        assert rss.bytes_read == 8 * 2 * MiB
        assert rss.bandwidth > 0 and fdir.bandwidth > 0

    def test_flow_director_reorders_rss_does_not(self, runs):
        rss, fdir = runs["rss"], runs["flow_director"]
        # The headline: ATR repoints split one strip's segments across
        # two cores' softirq queues; pure RSS hashing structurally
        # cannot (one flow -> one core -> one FIFO queue).
        assert fdir.out_of_order_segments > 0
        assert fdir.dup_acks >= fdir.out_of_order_segments
        assert fdir.fast_retransmits > 0
        assert rss.out_of_order_segments == 0
        assert rss.dup_acks == 0
        assert rss.fast_retransmits == 0

    def test_only_flow_director_repoints_flows(self, runs):
        assert runs["flow_director"].steering_migrations > 0
        assert runs["rss"].steering_migrations == 0


class TestRdmaZeroInterrupt:
    #: Every policy that goes through the interrupt path.
    INTERRUPTING = ("irqbalance", "rss", "rps_rfs", "source_aware")

    @pytest.fixture(scope="class")
    def sims(self):
        out = {}
        for policy in ("rdma_zerointr",) + self.INTERRUPTING:
            sim = Simulation(small_config(policy))
            metrics = sim.run()
            out[policy] = (sim, metrics)
        return out

    def test_no_interrupts_anywhere(self, sims):
        sim, metrics = sims["rdma_zerointr"]
        node = sim.cluster.clients[0]
        assert int(node.nic.interrupts_raised) == 0
        assert sum(node.ioapic.deliveries) == 0
        assert all(int(d.handled) == 0 for d in node.daemons)
        assert sum(metrics.clients[0].interrupts_per_core) == 0

    def test_reads_complete_with_zero_migrations(self, sims):
        _, metrics = sims["rdma_zerointr"]
        assert metrics.bytes_read == 4 * 1 * MiB
        assert metrics.migrations == 0

    def test_strictly_fewer_events_than_any_interrupting_policy(self, sims):
        rdma_events = sims["rdma_zerointr"][0].cluster.env.events_processed
        assert rdma_events > 0
        for policy in self.INTERRUPTING:
            other = sims[policy][0].cluster.env.events_processed
            assert rdma_events < other, (
                f"rdma_zerointr processed {rdma_events} events, "
                f"{policy} only {other}"
            )


class TestRpsRfsHandoffs:
    def test_hw_core_takes_irqs_consumers_take_softirq(self):
        sim = Simulation(small_config("rps_rfs"))
        metrics = sim.run()
        node = sim.cluster.clients[0]
        # All hardware interrupts land on core 0 (the pinned vector)...
        deliveries = list(node.ioapic.deliveries)
        assert deliveries[0] == sum(deliveries)
        # ...and the flow-table handoffs move the protocol work away.
        assert metrics.rps_handoffs > 0
        assert int(node.daemons[0].steered) == metrics.rps_handoffs
        assert metrics.migrations == 0
        # Handoffs ride the interconnect as signals, never as strip
        # migrations.
        assert int(node.interconnect.signals) == metrics.rps_handoffs
        assert int(node.interconnect.migrations) == 0


class TestUnknownPolicyErrors:
    """One message format, three entry surfaces."""

    def expected(self, name: str) -> str:
        return (
            f"unknown policy {name!r}; available: "
            + ", ".join(available_policies())
        )

    def test_factory_message(self):
        with pytest.raises(ConfigError) as excinfo:
            create_policy("numa_magic")
        assert str(excinfo.value) == self.expected("numa_magic")

    def test_config_message(self):
        with pytest.raises(ConfigError) as excinfo:
            ClusterConfig(policy="numa_magic")
        assert str(excinfo.value) == self.expected("numa_magic")

    def test_with_policy_message(self):
        config = ClusterConfig()
        with pytest.raises(ConfigError) as excinfo:
            config.with_policy("numa_magic")
        assert str(excinfo.value) == self.expected("numa_magic")

    def test_trace_cli_exits_2_with_message(self, capsys):
        code = main(
            ["trace", "fig5_bandwidth_3g", "--policy", "numa_magic"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert self.expected("numa_magic") in err

    def test_message_lists_every_registered_policy(self):
        with pytest.raises(ConfigError) as excinfo:
            create_policy("numa_magic")
        message = str(excinfo.value)
        for name in available_policies():
            assert name in message
