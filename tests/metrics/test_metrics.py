"""Tests for metric collection and report rendering."""

import pytest

from repro import ClusterConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.metrics import render_table, speedup
from repro.metrics.collectors import ClientMetrics, RunMetrics
from repro.units import KiB, MiB


def make_client_metrics(client_index=0, bandwidth=100.0, **overrides):
    defaults = dict(
        client_index=client_index,
        elapsed=1.0,
        bytes_read=int(bandwidth),
        bandwidth=bandwidth,
        l2_miss_rate=0.2,
        cpu_utilization=0.25,
        unhalted_cycles=1e9,
        migrations=10,
        migration_wait=0.5,
        memory_refetches=2,
        consume_locations={"local": 1, "remote": 2, "memory": 0, "absent": 0},
        interrupts_per_core=(5, 0, 3, 0),
        busy_by_category={"softirq": 0.1},
        evictions=1,
    )
    defaults.update(overrides)
    return ClientMetrics(**defaults)


class TestSpeedup:
    def test_positive_improvement(self):
        assert speedup(100.0, 123.57) == pytest.approx(0.2357)

    def test_regression_is_negative(self):
        assert speedup(100.0, 90.0) == pytest.approx(-0.10)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedup(0.0, 10.0)


class TestRenderTable:
    def test_columns_aligned(self):
        table = render_table(("a", "bbbb"), [("x", 1), ("yyyy", 22)])
        lines = [line for line in table.splitlines() if "|" in line]
        assert len(lines) == 3  # header + 2 rows (divider uses '+')
        assert len({line.index("|") for line in lines}) == 1

    def test_title_included(self):
        assert render_table(("a",), [("x",)], title="T").startswith("T")

    def test_all_rows_present(self):
        table = render_table(("n",), [(i,) for i in range(5)])
        assert table.count("\n") == 6  # header + divider + 5 rows


class TestClientMetrics:
    def test_interrupt_spread(self):
        metrics = make_client_metrics(interrupts_per_core=(5, 0, 3, 0))
        assert metrics.interrupt_spread == pytest.approx(0.5)

    def test_interrupt_spread_empty(self):
        metrics = make_client_metrics(interrupts_per_core=())
        assert metrics.interrupt_spread == 0.0


class TestRunMetrics:
    def test_aggregates_over_clients(self):
        run = RunMetrics(
            policy="irqbalance",
            elapsed=1.0,
            clients=(
                make_client_metrics(0, bandwidth=100.0),
                make_client_metrics(1, bandwidth=200.0),
            ),
        )
        assert run.bandwidth == pytest.approx(300.0)
        assert run.bytes_read == 300
        assert run.l2_miss_rate == pytest.approx(0.2)
        assert run.cpu_utilization == pytest.approx(0.25)
        assert run.migrations == 20

    def test_empty_clients(self):
        run = RunMetrics(policy="x", elapsed=1.0, clients=())
        assert run.bandwidth == 0.0
        assert run.l2_miss_rate == 0.0
        assert run.cpu_utilization == 0.0


class TestCollectedMetricsConsistency:
    def test_busy_categories_sum_to_busy_time(self):
        config = ClusterConfig(
            n_servers=8,
            workload=WorkloadConfig(
                n_processes=2, transfer_size=256 * KiB, file_size=1 * MiB
            ),
        )
        sim = Simulation(config)
        metrics = sim.run()
        client_metrics = metrics.clients[0]
        node = sim.cluster.clients[0]
        assert sum(client_metrics.busy_by_category.values()) == pytest.approx(
            sum(core.busy_time for core in node.cores), rel=1e-9
        )

    def test_utilization_matches_unhalted(self):
        config = ClusterConfig(
            n_servers=8,
            workload=WorkloadConfig(
                n_processes=2, transfer_size=256 * KiB, file_size=1 * MiB
            ),
        )
        metrics = Simulation(config).run()
        client = metrics.clients[0]
        clock = config.client.clock_hz
        busy_seconds = client.unhalted_cycles / clock
        expected_util = busy_seconds / (config.client.n_cores * client.elapsed)
        assert client.cpu_utilization == pytest.approx(expected_util)
