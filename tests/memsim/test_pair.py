"""Unit tests for the reader/combiner AppPair."""

import pytest

from repro.des import Environment
from repro.hw.core import Core
from repro.hw.memory import MemoryBus
from repro.memsim import AppPair, MemsimConfig
from repro.units import GHz, KiB, MiB


def build_pair(env, colocated_address_space=True, hot=1.0, cfg=None):
    cfg = cfg or MemsimConfig(per_app_bytes=1 * MiB)
    cores = [Core(env, i, cfg.clock_hz) for i in range(2)]
    membus = MemoryBus(env, cfg.memory_bandwidth)
    line_counts = [0.0, 0.0]
    pair = AppPair(
        env,
        cfg,
        reader_core=cores[0],
        combiner_core=cores[1],
        membus=membus,
        cache_hot_fraction=hot,
        line_counts=line_counts,
        shared_address_space=colocated_address_space,
    )
    return pair, cores, membus, line_counts


class TestAppPair:
    def test_moves_all_bytes(self):
        env = Environment()
        pair, *_ = build_pair(env)
        proc = env.process(pair.run())
        env.run(until=proc)
        assert pair.bytes_combined == 1 * MiB

    def test_reader_and_combiner_pipeline(self):
        """Reader (core 0) and combiner (core 1) overlap in time: total
        elapsed is far less than the serial sum of their busy times."""
        env = Environment()
        pair, cores, *_ = build_pair(env)
        proc = env.process(pair.run())
        env.run(until=proc)
        serial_sum = cores[0].busy_time + cores[1].busy_time
        assert env.now < 0.8 * serial_sum

    def test_shared_address_space_cheaper(self):
        env_a = Environment()
        shared, cores_a, *_ = build_pair(env_a, colocated_address_space=True)
        proc = env_a.process(shared.run())
        env_a.run(until=proc)

        env_b = Environment()
        split, cores_b, *_ = build_pair(env_b, colocated_address_space=False)
        proc = env_b.process(split.run())
        env_b.run(until=proc)

        assert env_a.now < env_b.now

    def test_cold_fraction_slows_shared_pair(self):
        env_a = Environment()
        hot_pair, *_ = build_pair(env_a, hot=1.0)
        proc = env_a.process(hot_pair.run())
        env_a.run(until=proc)

        env_b = Environment()
        cold_pair, *_ = build_pair(env_b, hot=0.0)
        proc = env_b.process(cold_pair.run())
        env_b.run(until=proc)

        assert env_a.now < env_b.now

    def test_miss_accounting(self):
        env = Environment()
        pair, _, _, line_counts = build_pair(env)
        proc = env.process(pair.run())
        env.run(until=proc)
        accesses, misses = line_counts
        strips = 1 * MiB // (64 * KiB)
        lines = 64 * KiB // 64
        # One read access-set + one combine access-set per strip.
        assert accesses == 2 * strips * lines
        assert 0 < misses < accesses

    def test_pipe_depth_bounds_reader_lead(self):
        """With a slow combiner, the bounded pipe throttles the reader."""
        cfg = MemsimConfig(
            per_app_bytes=1 * MiB, pipe_depth=2, combine_cold_rate=1e8
        )
        env = Environment()
        pair, cores, *_ = build_pair(
            env, colocated_address_space=False, cfg=cfg
        )
        proc = env.process(pair.run())
        env.run(until=proc)
        # Reader can't run ahead: its busy time is spread over ~the whole
        # run rather than front-loaded; total time ~ combiner-bound.
        combiner_bound = (1 * MiB) / 1e8
        assert env.now >= combiner_bound
