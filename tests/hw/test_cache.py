"""Tests for the private-cache residency directory and miss accounting."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.hw import CacheAccessModel, CacheSystem, Location
from repro.hw.cache import PrivateCache
from repro.units import KiB


def make_system(n_cores=4, l2=512 * KiB, strip=64 * KiB, **model_kwargs):
    model = CacheAccessModel(**model_kwargs) if model_kwargs else None
    return CacheSystem(n_cores, l2, strip, model=model)


class TestPrivateCache:
    def test_insert_and_contains(self):
        cache = PrivateCache(0, capacity_strips=2)
        assert cache.insert(1) == []
        assert 1 in cache

    def test_lru_eviction_order(self):
        cache = PrivateCache(0, capacity_strips=2)
        cache.insert(1)
        cache.insert(2)
        assert cache.insert(3) == [1]

    def test_touch_refreshes_lru(self):
        cache = PrivateCache(0, capacity_strips=2)
        cache.insert(1)
        cache.insert(2)
        cache.touch(1)
        assert cache.insert(3) == [2]

    def test_reinsert_does_not_evict(self):
        cache = PrivateCache(0, capacity_strips=2)
        cache.insert(1)
        cache.insert(2)
        assert cache.insert(2) == []
        assert len(cache) == 2

    def test_remove_missing_is_noop(self):
        cache = PrivateCache(0, capacity_strips=2)
        cache.remove(99)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            PrivateCache(0, capacity_strips=0)


class TestCacheSystem:
    def test_install_then_local_consume(self):
        sys = make_system()
        sys.install(2, strip_id=7)
        assert sys.owner(7) == 2
        assert sys.consume(2, 7) is Location.LOCAL

    def test_remote_consume_moves_strip(self):
        sys = make_system()
        sys.install(0, strip_id=7)
        assert sys.consume(3, 7) is Location.REMOTE
        assert sys.owner(7) == 3
        assert 7 not in sys.caches[0]
        assert 7 in sys.caches[3]

    def test_absent_consume(self):
        sys = make_system()
        assert sys.consume(0, 42) is Location.ABSENT
        assert sys.owner(42) == 0  # now resident at the consumer

    def test_eviction_sends_strip_to_memory(self):
        sys = make_system(l2=128 * KiB, strip=64 * KiB)  # 2 strips/cache
        sys.install(0, 1)
        sys.install(0, 2)
        sys.install(0, 3)  # evicts strip 1
        assert sys.owner(1) == CacheSystem.IN_MEMORY
        assert sys.consume(0, 1) is Location.MEMORY

    def test_capacity_at_least_one_strip(self):
        sys = CacheSystem(1, l2_bytes=KiB, strip_size=64 * KiB)
        assert sys.caches[0].capacity_strips == 1

    def test_miss_rate_local_vs_remote(self):
        local = make_system()
        remote = make_system()
        for strip in range(4):
            local.install(0, strip)
            remote.install(1, strip)
        for strip in range(4):
            local.consume(0, strip)
            remote.consume(0, strip)
        assert remote.miss_rate() > local.miss_rate()

    def test_miss_rate_zero_when_no_accesses(self):
        assert make_system().miss_rate() == 0.0

    def test_compute_pass_adds_mostly_hits(self):
        sys = make_system()
        sys.install(0, 1)
        sys.consume(0, 1)
        rate_before = sys.miss_rate()
        sys.compute_pass(0, 64 * KiB)
        assert sys.miss_rate() < rate_before

    def test_consume_charges_the_miss_fraction_of_its_location(self):
        sys = make_system(
            dma_touch_miss=0.25, local_miss=0.125, remote_miss=0.5, memory_miss=0.75
        )
        lines = sys.lines_per_strip
        sys.install(0, 1)
        steps = [
            (lambda: sys.consume(0, 1), Location.LOCAL, 0.125),
            (lambda: sys.consume(1, 1), Location.REMOTE, 0.5),
            (lambda: sys.consume(1, 2), Location.ABSENT, 0.75),
        ]
        for consume, location, fraction in steps:
            before = sys.misses
            assert consume() is location
            assert sys.misses - before == lines * fraction

    def test_consume_location_counters(self):
        sys = make_system()
        sys.install(0, 1)
        sys.consume(1, 1)
        sys.consume(1, 1)
        assert sys.consume_by_location[Location.REMOTE] == 1
        assert sys.consume_by_location[Location.LOCAL] == 1

    def test_install_moves_ownership_between_cores(self):
        sys = make_system()
        sys.install(0, 9)
        sys.install(2, 9)
        assert sys.owner(9) == 2
        assert 9 not in sys.caches[0]

    def test_invalid_core_rejected(self):
        sys = make_system(n_cores=2)
        with pytest.raises(SimulationError):
            sys.install(5, 0)
        with pytest.raises(SimulationError):
            sys.consume(-1, 0)

    def test_eviction_counter(self):
        sys = make_system(l2=64 * KiB, strip=64 * KiB)  # 1 strip/cache
        sys.install(0, 1)
        sys.install(0, 2)
        assert sys.evictions == 1


class TestCacheAccessModel:
    def test_fraction_fields_bounded(self):
        with pytest.raises(ConfigError):
            CacheAccessModel(remote_miss=1.5)
        with pytest.raises(ConfigError):
            CacheAccessModel(dma_touch_miss=-0.1)

    def test_compute_factor_may_exceed_one(self):
        CacheAccessModel(compute_accesses_per_line=8.0)  # no raise
