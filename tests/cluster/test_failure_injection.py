"""Failure injection: the system degrades, it does not break.

Scenarios a production deployment of SAIs would face: corrupted IP
options on the wire, a straggling I/O server, and seed-to-seed
variability of the headline result.
"""

import dataclasses

import pytest

from repro import ClusterConfig, ServerConfig, WorkloadConfig, compare_policies
from repro.cluster.builder import build_cluster
from repro.core.sais import SrcParser
from repro.des import AllOf
from repro.net import Packet
from repro.units import KiB, MiB
from repro.workloads import spawn_ior_processes


class TestCorruptedOptions:
    def make_packet(self, options):
        return Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=1,
            strip_id=0,
            options=options,
        )

    @pytest.mark.parametrize(
        "garbage",
        [
            bytes([0x44]),            # unknown option class
            bytes([0x7F, 0x7F]),      # copied=0 junk
            bytes([0x01, 0x02, 0x03]),  # NOP then unknown
        ],
    )
    def test_parser_survives_garbage(self, garbage):
        parser = SrcParser()
        assert parser.parse(self.make_packet(garbage)) is None
        assert parser.parse_errors == 1

    def test_corrupted_flow_in_full_cluster(self):
        """Corrupt every packet from one server: run completes, only that
        server's strips lose locality."""
        config = ClusterConfig(
            n_servers=4,
            policy="source_aware",
            workload=WorkloadConfig(
                n_processes=2, transfer_size=256 * KiB, file_size=512 * KiB
            ),
        )
        cluster = build_cluster(config)
        victim = cluster.servers[0]
        original = victim.capsuler.encapsulate

        def corrupt(packet, hint):
            original(packet, hint)
            if packet.options:
                packet.options = bytes([0x44]) + packet.options[1:]

        victim.capsuler.encapsulate = corrupt
        procs = spawn_ior_processes(cluster.clients[0], config.workload)
        cluster.env.run(until=AllOf(cluster.env, procs))

        client = cluster.clients[0]
        assert client.src_parser.parse_errors > 0
        # All data still delivered.
        total = sum(int(p.value) for p in procs)
        assert total == 2 * 512 * KiB
        # Non-corrupted servers' strips still found their core: not every
        # consume degenerated.
        locations = {
            loc.value: int(c)
            for loc, c in client.cache.consume_by_location.items()
        }
        assert locations["local"] > 0


class TestStragglerServer:
    def run_with_straggler(self, policy):
        config = ClusterConfig(
            n_servers=8,
            policy=policy,
            workload=WorkloadConfig(
                n_processes=4, transfer_size=512 * KiB, file_size=1 * MiB
            ),
        )
        cluster = build_cluster(config)
        # Server 0's disk is 20x slower and its page cache useless.
        slow = dataclasses.replace(
            config.server, disk_rate=config.server.disk_rate / 20,
            cache_hit_ratio=0.0,
        )
        cluster.servers[0].config = slow
        cluster.servers[0].disk.rate = slow.disk_rate
        procs = spawn_ior_processes(cluster.clients[0], config.workload)
        cluster.env.run(until=AllOf(cluster.env, procs))
        total = sum(int(p.value) for p in procs)
        return total, cluster.env.now

    def test_run_completes_despite_straggler(self):
        total, elapsed = self.run_with_straggler("source_aware")
        assert total == 4 * 1 * MiB
        assert elapsed > 0

    def test_straggler_hurts_but_ordering_survives(self):
        _, sais_time = self.run_with_straggler("source_aware")
        _, irq_time = self.run_with_straggler("irqbalance")
        # Both are straggler-dominated; SAIs is never slower by much.
        assert sais_time <= irq_time * 1.05


class TestSeedRobustness:
    def test_headline_stable_across_seeds(self):
        speedups = []
        for seed in (1, 2, 3, 4, 5):
            config = ClusterConfig(
                n_servers=32,
                seed=seed,
                workload=WorkloadConfig(
                    n_processes=8, transfer_size=1 * MiB, file_size=4 * MiB
                ),
            )
            speedups.append(compare_policies(config).bandwidth_speedup)
        assert min(speedups) > 0.08
        assert max(speedups) - min(speedups) < 0.12
