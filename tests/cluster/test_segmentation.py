"""MSS-segmented flows through the full cluster path.

With ``NetworkConfig.mss`` set, each strip travels as a train of
per-segment packets, each raising its own interrupt; the consumer is
woken only when the strip reassembles.  The IP option's copied flag puts
the SAIs hint on every segment, so source-aware routing still works.
"""

import pytest

from repro import ClusterConfig, NetworkConfig, WorkloadConfig, compare_policies
from repro.cluster.simulation import Simulation
from repro.units import KiB, MiB


def config(mss, policy="irqbalance", **kwargs):
    defaults = dict(
        n_servers=8,
        policy=policy,
        network=NetworkConfig(mss=mss),
        workload=WorkloadConfig(
            n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
        ),
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


STRIPS = 2 * 1 * MiB // (64 * KiB)  # processes x file / strip


class TestSegmentedFlows:
    def test_all_bytes_delivered(self):
        sim = Simulation(config(mss=8960))
        metrics = sim.run()
        assert metrics.bytes_read == 2 * MiB

    def test_interrupt_count_scales_with_segments(self):
        unsegmented = Simulation(config(mss=None))
        unsegmented.run()
        segmented = Simulation(config(mss=8960))
        segmented.run()
        irqs_plain = unsegmented.cluster.clients[0].nic.interrupts_raised
        irqs_seg = segmented.cluster.clients[0].nic.interrupts_raised
        # 64 KiB strip over 8960-byte segments -> 8 interrupts per strip.
        assert irqs_plain == STRIPS
        assert irqs_seg == 8 * STRIPS

    def test_consumer_woken_once_per_strip(self):
        sim = Simulation(config(mss=8960))
        sim.run()
        client = sim.cluster.clients[0]
        consumed = sum(client.cache.consume_by_location.values())
        assert consumed == STRIPS

    def test_hint_parsed_on_every_segment(self):
        sim = Simulation(config(mss=8960, policy="source_aware"))
        sim.run()
        parser = sim.cluster.clients[0].src_parser
        assert parser.hints_found == 8 * STRIPS

    def test_sais_stays_local_under_segmentation(self):
        sim = Simulation(config(mss=8960, policy="source_aware"))
        metrics = sim.run()
        assert metrics.migrations == 0
        locations = metrics.clients[0].consume_locations
        assert locations["remote"] == 0

    def test_segmentation_costs_bandwidth(self):
        plain = Simulation(config(mss=None)).run()
        segmented = Simulation(config(mss=1448)).run()
        # Per-segment fixed interrupt costs make segmented flows slower.
        assert segmented.bandwidth <= plain.bandwidth

    def test_sais_still_wins_when_segmented(self):
        comparison_config = config(
            mss=8960,
            workload=WorkloadConfig(
                n_processes=8, transfer_size=1 * MiB, file_size=4 * MiB
            ),
            n_servers=16,
        )
        result = compare_policies(comparison_config)
        assert result.bandwidth_speedup > 0.05

    def test_odd_mss_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            NetworkConfig(mss=0)
