"""Unit tests for the unified metrics registry (repro.obs.registry)."""

import dataclasses

import pytest

from repro.des.monitor import Counter
from repro.errors import SimulationError
from repro.obs import MetricsRegistry


class TestRegistration:
    def test_counter_reads_live_value(self):
        registry = MetricsRegistry()
        counter = Counter("hits")
        registry.register_counter("hits", counter)
        assert registry.read("hits") == 0.0
        counter.add(3)
        assert registry.read("hits") == 3.0

    def test_probe(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.register_probe("gauge", lambda: state["value"])
        state["value"] = 7.5
        assert registry.read("gauge") == 7.5

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.register_probe("x", lambda: 0.0)
        with pytest.raises(SimulationError):
            registry.register_probe("x", lambda: 1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            MetricsRegistry().read("nope")


class TestSnapshot:
    def test_snapshot_is_sorted_and_filterable(self):
        registry = MetricsRegistry()
        registry.register_probe("b.two", lambda: 2.0)
        registry.register_probe("a.one", lambda: 1.0)
        registry.register_probe("b.one", lambda: 3.0)
        names = [s.name for s in registry.snapshot()]
        assert names == ["a.one", "b.one", "b.two"]
        assert [s.name for s in registry.snapshot(prefix="b.")] == [
            "b.one",
            "b.two",
        ]

    def test_as_dict(self):
        registry = MetricsRegistry()
        registry.register_probe("x", lambda: 4.0)
        assert registry.as_dict() == {"x": 4.0}

    def test_labels_round_trip(self):
        registry = MetricsRegistry()
        registry.register_probe("x", lambda: 0.0, labels={"core": 3})
        sample = registry.snapshot()[0]
        assert sample.label("core") == 3
        assert sample.label("missing") is None


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

    def test_kind_inference(self):
        @dataclasses.dataclass
        class Record:
            total: int
            mean: float

        registry = MetricsRegistry()
        registry.ingest_dataclass("r", Record(total=1, mean=2.0))
        kinds = {s.name: s.kind for s in registry.snapshot()}
        assert kinds == {"r.total": "counter", "r.mean": "gauge"}


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
        names = [s.name for s in metrics.snapshot()]
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
        assert [
            s for s in metrics.snapshot(prefix="resilience.")
        ], "resilience record was not ingested"
