"""SAIs on clients with more cores than the 5-bit hint can address.

The paper's Fig. 4 encoding identifies at most 32 cores.  On a larger
client, requests issued from cores >= 32 travel unhinted and their
interrupts fall back to load-based placement — SAIs degrades gracefully
instead of failing, and processes on encodable cores keep their full
locality benefit.
"""

import pytest

from repro import ClientConfig, ClusterConfig, WorkloadConfig, run_experiment
from repro.cluster.simulation import Simulation
from repro.hw.cache import Location
from repro.net.ip_options import MAX_ENCODABLE_CORES
from repro.units import KiB, MiB


def many_core_config(n_cores=40, n_processes=40):
    return ClusterConfig(
        n_servers=8,
        policy="source_aware",
        # Single-socket topology so odd core counts are valid.
        client=ClientConfig(n_cores=n_cores, n_sockets=1),
        workload=WorkloadConfig(
            n_processes=n_processes, transfer_size=256 * KiB, file_size=512 * KiB
        ),
    )


class TestManyCoreClient:
    def test_run_completes_without_error(self):
        metrics = run_experiment(many_core_config())
        assert metrics.bytes_read == 40 * 512 * KiB

    def test_unencodable_hints_counted(self):
        sim = Simulation(many_core_config())
        sim.run()
        client = sim.cluster.clients[0]
        # 8 of 40 processes sit on cores 32..39: 2 requests x 8 strips each.
        assert client.hint_messager.hints_unencodable > 0
        assert client.hint_messager.hints_attached > 0

    def test_encodable_cores_keep_locality(self):
        sim = Simulation(many_core_config())
        sim.run()
        client = sim.cluster.clients[0]
        consumed = client.cache.consume_by_location
        # Strips for cores < 32 stay local; only the unhinted tail of
        # processes pays remote consumes.
        assert consumed[Location.LOCAL] > consumed[Location.REMOTE]

    def test_exactly_32_cores_fully_hinted(self):
        config = many_core_config(
            n_cores=MAX_ENCODABLE_CORES, n_processes=MAX_ENCODABLE_CORES
        )
        sim = Simulation(config)
        metrics = sim.run()
        client = sim.cluster.clients[0]
        assert client.hint_messager.hints_unencodable == 0
        assert metrics.migrations == 0

    def test_33rd_core_is_the_first_unhinted(self):
        config = many_core_config(n_cores=33, n_processes=33)
        sim = Simulation(config)
        sim.run()
        client = sim.cluster.clients[0]
        # Exactly one process (core 32) is unhinted: 2 requests x strips.
        strips_per_request = 256 * KiB // config.strip_size
        requests = 512 * KiB // (256 * KiB)
        assert client.hint_messager.hints_unencodable == (
            strips_per_request * requests
        )
