"""Tests for generator processes: waiting, returning, failing."""

import pytest

from repro.des import Environment
from repro.errors import SimulationError


@pytest.fixture
def env():
    return Environment()


class TestLifecycle:
    def test_process_runs_and_returns_value(self, env):
        def worker(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return "finished"

        proc = env.process(worker(env))
        assert proc.is_alive
        env.run()
        assert not proc.is_alive
        assert proc.value == "finished"
        assert env.now == 3.0

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_process_waiting_on_another_process(self, env):
        def child(env):
            yield env.timeout(2.0)
            return 10

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        proc = env.process(parent(env))
        assert env.run(until=proc) == 20

    def test_yielding_non_event_fails_process(self, env):
        def bad(env):
            yield 42

        proc = env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run(until=proc)

    def test_yielding_foreign_event_fails_process(self, env):
        other = Environment()

        def bad(env):
            yield other.timeout(1.0)

        proc = env.process(bad(env))
        with pytest.raises(SimulationError, match="foreign"):
            env.run(until=proc)

    def test_exception_in_process_propagates_to_waiter(self, env):
        def bomb(env):
            yield env.timeout(1.0)
            raise KeyError("inner")

        def waiter(env):
            try:
                yield env.process(bomb(env))
            except KeyError:
                return "caught"

        proc = env.process(waiter(env))
        assert env.run(until=proc) == "caught"

    def test_uncaught_process_exception_stops_run(self, env):
        def bomb(env):
            yield env.timeout(1.0)
            raise KeyError("kaboom")

        env.process(bomb(env))
        with pytest.raises(KeyError):
            env.run()

    def test_yield_already_processed_event_continues_immediately(self, env):
        done = env.timeout(1.0, value="early")
        env.run()

        def worker(env):
            value = yield done
            return value

        proc = env.process(worker(env))
        assert env.run(until=proc) == "early"
        assert env.now == 1.0

    def test_immediate_return_process(self, env):
        def instant(env):
            return 5
            yield  # pragma: no cover - makes it a generator

        proc = env.process(instant(env))
        assert env.run(until=proc) == 5
