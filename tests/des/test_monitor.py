"""Tests for measurement probes."""

import pytest

from repro.des import Environment
from repro.des.monitor import Counter, IntervalAccumulator
from repro.errors import SimulationError


@pytest.fixture
def env():
    return Environment()


class TestCounter:
    def test_accumulates(self):
        c = Counter("bytes")
        c.add(10)
        c.add(5.5)
        assert c.value == 15.5

    def test_default_increment_is_one(self):
        c = Counter("hits")
        c.add()
        c.add()
        assert c.value == 2.0

    def test_negative_add_rejected(self):
        with pytest.raises(SimulationError):
            Counter("x").add(-1)

    def test_repr_contains_name_and_value(self):
        c = Counter("misses")
        c.add(3)
        assert "misses" in repr(c) and "3" in repr(c)


class TestIntervalAccumulator:
    def test_simple_interval(self, env):
        acc = IntervalAccumulator(env)
        acc.begin()
        env.run(until=3.0)
        acc.end()
        assert acc.total == 3.0

    def test_overlapping_marks_count_once(self, env):
        acc = IntervalAccumulator(env)
        acc.begin()
        env.run(until=1.0)
        acc.begin()  # nested
        env.run(until=2.0)
        acc.end()
        env.run(until=4.0)
        acc.end()
        assert acc.total == 4.0

    def test_end_without_begin_raises(self, env):
        with pytest.raises(SimulationError):
            IntervalAccumulator(env).end()

    def test_current_total_includes_open_interval(self, env):
        acc = IntervalAccumulator(env)
        acc.begin()
        env.run(until=2.5)
        assert acc.current_total() == 2.5
        assert acc.total == 0.0

    def test_active_flag(self, env):
        acc = IntervalAccumulator(env)
        assert not acc.active
        acc.begin()
        assert acc.active
        acc.end()
        assert not acc.active

    def test_disjoint_intervals_sum(self, env):
        acc = IntervalAccumulator(env)
        acc.begin()
        env.run(until=1.0)
        acc.end()
        env.run(until=5.0)
        acc.begin()
        env.run(until=7.0)
        acc.end()
        assert acc.total == 3.0
