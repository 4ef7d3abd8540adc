"""Unit tests for the unified metrics registry (repro.obs.registry)."""

import dataclasses
import hashlib
import types

import pytest

from repro.errors import SimulationError
from repro.obs import MetricsRegistry


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


#: Registry known answers per regime, on the default wire path: (number
#: of names, sha256 of the sorted ``name=float(value).hex()`` lines).
#: Each regime runs 2 clients and 8 servers at MSS 1460: irqbalance on a
#: healthy fabric, source_aware under every fault hazard, rps_rfs with NAPI.
REGISTRY_KNOWN = {
    "healthy": (
        145,
        "958f75dcc4c1938d8d2a45022ca35de9cf8a7ead04a75682a41c8fb8d3eb5b12",
    ),
    "faults": (
        168,
        "2748da51c90147ee0185d9650e87d4f8f83bbff33167cd7921d2f280f45d3755",
    ),
    "napi": (
        145,
        "95e6ac8981a26b36057ddb80d84ca55bc74dc4568b204a3ab72c1f40716447bc",
    ),
}


class TestClusterIntegration:
    def test_built_cluster_registry_reads_simulation_state(self):
        from repro import ClusterConfig, WorkloadConfig
        from repro.cluster.simulation import Simulation
        from repro.units import KiB, MiB

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
        from repro import ClusterConfig, WorkloadConfig
        from repro.faults import FaultPlan
        from repro.cluster.simulation import Simulation
        from repro.units import KiB, MiB

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
        assert metrics.read("faults.packets_dropped") > 0
        assert any(
            name.startswith("resilience.") for name in metrics.names()
        ), "resilience record was not ingested"

    @pytest.mark.parametrize("regime", sorted(REGISTRY_KNOWN))
    def test_every_reading_matches_known_answer(self, regime):
        # Every registered instrument, read after the run, against its
        # recorded value: a moved count, or a reader registered in a loop
        # that reads another component, fails here.
        from repro import (
            ClientConfig,
            ClusterConfig,
            NetworkConfig,
            WorkloadConfig,
        )
        from repro.cluster.simulation import Simulation
        from repro.faults import FaultPlan
        from repro.units import KiB, MiB

        policy, napi, faults = {
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
        }[regime]
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
        sim.run()
        metrics = sim.cluster.metrics
        lines = "\n".join(
            f"{name}={float(metrics.read(name)).hex()}"
            for name in sorted(metrics.names())
        )
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert (len(metrics.names()), digest) == REGISTRY_KNOWN[regime]
