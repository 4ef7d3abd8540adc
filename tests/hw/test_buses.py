"""Tests for the interconnect (migration) bus and the memory bus."""

import pytest

from repro.config import CostModel
from repro.des import Environment
from repro.hw import Core, InterconnectBus, MemoryBus
from repro.units import KiB, MiB


@pytest.fixture
def env():
    return Environment()


class TestInterconnectBus:
    def test_single_transfer_time_matches_cost_model(self, env):
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        env.process(bus.transfer(64 * KiB, costs.c2c_rate))
        env.run()
        assert env.now == pytest.approx(costs.strip_migration_time(64 * KiB))
        assert bus.migrations == 1
        assert bus.bytes_moved == 64 * KiB

    def test_transfers_serialize(self, env):
        """The paper: only one strip migration can happen at any time."""
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        n = 5
        for _ in range(n):
            env.process(bus.transfer(64 * KiB, costs.c2c_rate))
        env.run()
        assert env.now == pytest.approx(n * costs.strip_migration_time(64 * KiB))

    def test_wait_time_accumulates_under_contention(self, env):
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        for _ in range(3):
            env.process(bus.transfer(64 * KiB, costs.c2c_rate))
        env.run()
        single = costs.strip_migration_time(64 * KiB)
        # Second waits 1x, third waits 2x.
        assert bus.wait_time == pytest.approx(3 * single)

    def test_busy_time(self, env):
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        env.process(bus.transfer(64 * KiB, costs.c2c_rate))
        env.process(bus.transfer(128 * KiB, costs.c2c_rate))
        env.run()
        expected = costs.strip_migration_time(64 * KiB) + costs.strip_migration_time(
            128 * KiB
        )
        assert bus.busy_time == pytest.approx(expected)

    def test_stalled_core_is_busy_from_grant_to_completion(self, env):
        """A queued consumer is idle; the granted transfer stalls it."""
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        first, second = Core(env, 0, 1e9), Core(env, 1, 1e9)
        grants = []

        def merge(core):
            granted_at = yield from bus.transfer(
                64 * KiB, costs.c2c_rate, core=core
            )
            grants.append(granted_at)

        env.process(merge(first))
        env.process(merge(second))
        env.run()
        m = costs.strip_migration_time(64 * KiB)
        assert grants == [0.0, m]
        assert first.busy_time == pytest.approx(m)
        assert second.busy_time == pytest.approx(m)  # not 2m: queue is idle
        assert second.busy_by_category["migration"] == pytest.approx(m)
        assert bus.wait_time == pytest.approx(m)
        assert not first.is_busy and not second.is_busy

    def test_refetch_category_and_rate(self, env):
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        core = Core(env, 0, 1e9)
        env.process(
            bus.transfer(
                64 * KiB, costs.mem_fetch_rate, core=core, category="memory_fetch"
            )
        )
        env.run()
        expected = costs.c2c_latency + 64 * KiB / costs.mem_fetch_rate
        assert env.now == pytest.approx(expected)
        assert core.busy_by_category["memory_fetch"] == pytest.approx(expected)
        assert bus.migrations == 1

    def test_signals_share_the_bus_but_not_the_counters(self, env):
        costs = CostModel()
        bus = InterconnectBus(env, costs)
        env.process(bus.transfer(64 * KiB, costs.c2c_rate))
        env.process(bus.signal())
        env.run()
        m = costs.strip_migration_time(64 * KiB)
        assert env.now == pytest.approx(m + costs.c2c_latency)
        assert bus.signals == 1
        assert bus.migrations == 1
        assert bus.wait_time == 0.0
        assert bus.busy_time == pytest.approx(m + costs.c2c_latency)


class TestMemoryBus:
    def test_transfer_time(self, env):
        bus = MemoryBus(env, bandwidth=1 * MiB)
        env.process(bus.transfer(512 * KiB))
        env.run()
        assert env.now == pytest.approx(0.5)

    def test_serialization(self, env):
        bus = MemoryBus(env, bandwidth=1 * MiB)
        env.process(bus.transfer(1 * MiB))
        env.process(bus.transfer(1 * MiB))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_rejects_bad_bandwidth(self, env):
        with pytest.raises(ValueError):
            MemoryBus(env, bandwidth=0)

    def test_busy_time_tracks_throughput(self, env):
        bus = MemoryBus(env, bandwidth=2 * MiB)
        env.process(bus.transfer(1 * MiB))
        env.run()
        assert bus.busy_time == pytest.approx(0.5)
        assert bus.bytes_moved == MiB
