"""Tests for Event, Timeout and AllOf."""

import pytest

from repro.des import AllOf, Environment
from repro.errors import SimulationError


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_carries_value(self, env):
        ev = env.event().succeed("payload")
        assert ev.triggered and ev.ok and ev.value == "payload"

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(ValueError("x"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callbacks_receive_event(self, env):
        seen = []
        ev = env.timeout(1.0, value=7)
        ev.callbacks.append(seen.append)
        env.run()
        assert seen == [ev]
        assert ev.processed

    def test_repr_states(self, env):
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)
        env.run()
        assert "processed" in repr(ev)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self, env):
        ev = env.timeout(0.0, value="now")
        env.run()
        assert ev.processed and ev.value == "now"
        assert env.now == 0.0

    def test_delay_attribute(self, env):
        assert env.timeout(2.5).delay == 2.5


class TestAllOf:
    def test_fires_after_all_children(self, env):
        t1, t2, t3 = env.timeout(1.0), env.timeout(3.0), env.timeout(2.0)
        cond = AllOf(env, [t1, t2, t3])
        env.run(until=cond)
        assert env.now == 3.0

    def test_value_maps_children(self, env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(2.0, value="b")
        result = env.run(until=AllOf(env, [t1, t2]))
        assert result == {t1: "a", t2: "b"}

    def test_empty_fires_immediately(self, env):
        cond = AllOf(env, [])
        assert cond.triggered
        assert env.run(until=cond) == {}

    def test_with_already_processed_child(self, env):
        t1 = env.timeout(1.0)
        env.run()
        t2 = env.timeout(1.0)
        cond = AllOf(env, [t1, t2])
        env.run(until=cond)
        assert env.now == 2.0

    def test_child_failure_fails_condition(self, env):
        def bomb(env):
            yield env.timeout(1.0)
            raise ValueError("dead")

        proc = env.process(bomb(env))
        cond = AllOf(env, [proc, env.timeout(5.0)])
        with pytest.raises(ValueError, match="dead"):
            env.run(until=cond)

    def test_foreign_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AllOf(env, [other.timeout(1.0)])
