"""Unit tests for the unified metrics registry (repro.obs.registry)."""

import dataclasses
import json
import pathlib
import types

import pytest

from repro import ClientConfig, ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.builder import build_cluster
from repro.cluster.simulation import Simulation
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.net import Packet
from repro.obs import MetricsRegistry
from repro.units import KiB, MiB


class TestRegistration:
    def test_counter_reads_live_value(self):
        component = types.SimpleNamespace(hits=0)
        registry = MetricsRegistry()
        registry.register("hits", lambda: component.hits)
        assert registry.read("hits") == 0
        component.hits += 3
        assert registry.read("hits") == 3

    def test_probe(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.register("gauge", lambda: state["value"])
        state["value"] = 7.5
        assert registry.read("gauge") == 7.5

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: 0.0)
        with pytest.raises(SimulationError):
            registry.register("x", lambda: 1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            MetricsRegistry().read("nope")

    def test_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.register("b.two", lambda: 2.0)
        registry.register("a.one", lambda: 1.0)
        registry.register("b.one", lambda: 3.0)
        assert registry.names() == ("a.one", "b.one", "b.two")


class TestIngestDataclass:
    def test_numeric_fields_captured_at_ingest_time(self):
        @dataclasses.dataclass
        class Record:
            count: int
            rate: float
            name: str  # non-numeric: skipped
            flag: bool  # bool: skipped (it is an int subclass)

        record = Record(count=5, rate=0.5, name="x", flag=True)
        registry = MetricsRegistry()
        registry.ingest_dataclass("rec", record)
        assert registry.read("rec.count") == 5.0
        assert registry.read("rec.rate") == 0.5
        with pytest.raises(SimulationError):
            registry.read("rec.name")
        with pytest.raises(SimulationError):
            registry.read("rec.flag")
        # Values are frozen at ingest: later mutation is invisible.
        record.count = 99
        assert registry.read("rec.count") == 5.0


#: Every reading of three regimes after the run, as ``float.hex()``:
#: regime -> name -> value.  ``--update-goldens`` rewrites the file.
KNOWN_PATH = pathlib.Path(__file__).with_name("registry_known.json")

#: (policy, NAPI, fault plan) per regime.  Each runs 2 clients and 8
#: servers at MSS 1460: irqbalance on a healthy fabric, source_aware
#: under every fault hazard, rps_rfs with NAPI.
REGIMES = {
    "healthy": ("irqbalance", False, None),
    "faults": (
        "source_aware",
        False,
        FaultPlan(
            loss_prob=0.05,
            corrupt_prob=0.1,
            strip_option_prob=0.1,
            reorder_prob=0.2,
            straggler_servers=(1,),
            straggler_slowdown=8.0,
            server_failure_windows=((2, 0.0, 2e-3),),
            strip_retry_timeout=5e-3,
            max_strip_retries=5,
            seed=7,
        ),
    ),
    "napi": ("rps_rfs", True, None),
}


@pytest.fixture(scope="module", params=sorted(REGIMES))
def regime_run(request):
    """(regime, finished simulation, its run metrics), once per regime."""
    policy, napi, faults = REGIMES[request.param]
    sim = Simulation(
        ClusterConfig(
            n_servers=8,
            n_clients=2,
            policy=policy,
            client=ClientConfig(napi=napi),
            network=NetworkConfig(mss=1460),
            workload=WorkloadConfig(
                n_processes=2, transfer_size=256 * KiB, file_size=1 * MiB
            ),
            faults=faults,
        )
    )
    return request.param, sim, sim.run()


class TestClusterIntegration:
    def test_built_cluster_registry_reads_simulation_state(self):
        config = ClusterConfig(
            n_servers=4,
            workload=WorkloadConfig(
                n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
            ),
        )
        sim = Simulation(config)
        sim.run()
        metrics = sim.cluster.metrics
        assert metrics.read("des.events_processed") == float(
            sim.cluster.env.events_processed
        )
        assert metrics.read("switch.bytes") > 0
        served = sum(
            metrics.read(f"server{i}.strips_served")
            for i in range(config.n_servers)
        )
        assert served > 0
        # Every component family shows up in one flat namespace.
        names = metrics.names()
        assert any(n.startswith("client0.core0.") for n in names)
        assert any(n.startswith("client0.pfs.") for n in names)
        assert any(n.startswith("client0.interconnect.") for n in names)

    def test_resilience_ingested_when_faults_active(self):
        config = ClusterConfig(
            n_servers=4,
            faults=FaultPlan(loss_prob=0.05),
            workload=WorkloadConfig(
                n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
            ),
        )
        sim = Simulation(config)
        sim.run()
        metrics = sim.cluster.metrics
        assert metrics.read("resilience.packets_dropped") > 0
        assert any(
            name.startswith("resilience.") for name in metrics.names()
        ), "resilience record was not ingested"

    def test_every_reading_matches_known_answer(
        self, regime_run, update_goldens
    ):
        # Every registered instrument, read after the run, against its
        # recorded value: a moved count, or a reader registered in a loop
        # that reads another component, fails here under its own name.
        regime, sim, _ = regime_run
        metrics = sim.cluster.metrics
        readings = {
            name: float(metrics.read(name)).hex() for name in metrics.names()
        }
        known = json.loads(KNOWN_PATH.read_text(encoding="utf-8"))
        if update_goldens:
            known[regime] = readings
            KNOWN_PATH.write_text(
                json.dumps(known, sort_keys=True, indent=1) + "\n",
                encoding="utf-8",
            )
            pytest.skip(f"known answers updated: {regime}")
        assert readings == known[regime]

    def test_busy_times_lie_within_the_run(self, regime_run):
        _, sim, run = regime_run
        metrics = sim.cluster.metrics
        busy = [n for n in metrics.names() if n.endswith(".busy_time")]
        assert "server0.disk.busy_time" in busy
        for name in busy:
            assert 0.0 <= metrics.read(name) <= run.elapsed, name

    def test_each_client_uplink_reads_its_own_wire(self):
        # The regimes put no traffic on client uplinks (they read 0.0
        # there), so a reader that reads another client's uplink would
        # pass the known answers; one packet on client 1's does not.
        cluster = build_cluster(ClusterConfig(n_servers=1, n_clients=2))
        uplink = cluster.client_uplinks[1]
        packet = Packet(
            size=64 * KiB, src_server=0, dst_client=1, request_id=0, strip_id=0
        )
        cluster.env.process(uplink.send(packet))
        cluster.env.run()
        assert cluster.metrics.read("client0.uplink.busy_time") == 0.0
        assert cluster.metrics.read(
            "client1.uplink.busy_time"
        ) == uplink.serialization_time(packet.size)
