"""Tests for Resource, PriorityResource and Store."""

import pytest

from repro.des import Environment, PriorityResource, Resource, Store
from repro.errors import SimulationError


@pytest.fixture
def env():
    return Environment()


def hold(env, resource, duration, log, tag, priority=0):
    with resource.request(priority=priority) as req:
        yield req
        log.append((env.now, "start", tag))
        yield env.timeout(duration)
        log.append((env.now, "end", tag))


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self, env):
        res = Resource(env, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert not r3.triggered
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_fifo_service_order(self, env):
        res = Resource(env, capacity=1)
        log = []
        for tag in "abc":
            env.process(hold(env, res, 1.0, log, tag))
        env.run()
        starts = [entry[2] for entry in log if entry[1] == "start"]
        assert starts == ["a", "b", "c"]
        assert env.now == 3.0

    def test_release_wakes_next_waiter(self, env):
        res = Resource(env, capacity=1)
        log = []
        env.process(hold(env, res, 2.0, log, "first"))
        env.process(hold(env, res, 1.0, log, "second"))
        env.run()
        assert (2.0, "start", "second") in log

    def test_release_unheld_request_raises(self, env):
        res = Resource(env)
        req = res.request()
        env.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancelled_waiter_is_skipped(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        waiting = res.request()
        waiting.cancel()
        last = res.request()
        env.run()
        res.release(held)
        assert last.triggered
        assert not waiting.triggered

    def test_cancel_granted_request_raises(self, env):
        res = Resource(env)
        req = res.request()
        with pytest.raises(SimulationError):
            req.cancel()

    def test_context_manager_releases_on_exit(self, env):
        res = Resource(env, capacity=1)

        def user(env):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

        env.process(user(env))
        env.run()
        assert res.in_use == 0

    def test_context_manager_cancels_ungranted_on_exit(self, env):
        res = Resource(env, capacity=1)
        res.request()  # holds forever

        def impatient(env):
            with res.request() as req:
                result = yield env.timeout(1.0, value="gave up") or req
                return result

        env.process(impatient(env))
        env.run()
        assert res.queue_length == 0


class TestPriorityResource:
    def test_lower_priority_number_served_first(self, env):
        res = PriorityResource(env, capacity=1)
        log = []
        env.process(hold(env, res, 1.0, log, "holder", priority=0))

        def submit(env):
            yield env.timeout(0.1)
            env.process(hold(env, res, 1.0, log, "low", priority=10))
            env.process(hold(env, res, 1.0, log, "high", priority=0))

        env.process(submit(env))
        env.run()
        starts = [entry[2] for entry in log if entry[1] == "start"]
        assert starts == ["holder", "high", "low"]

    def test_equal_priority_is_fifo(self, env):
        res = PriorityResource(env, capacity=1)
        log = []
        for tag in ("x", "y", "z"):
            env.process(hold(env, res, 1.0, log, tag, priority=5))
        env.run()
        starts = [entry[2] for entry in log if entry[1] == "start"]
        assert starts == ["x", "y", "z"]

    def test_cancelled_priority_waiter_skipped(self, env):
        res = PriorityResource(env, capacity=1)
        held = res.request(priority=0)
        urgent = res.request(priority=0)
        urgent.cancel()
        casual = res.request(priority=9)
        env.run()
        res.release(held)
        assert casual.triggered
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("item")
        got = store.get()
        env.run()
        assert got.value == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        results = []

        def consumer(env):
            item = yield store.get()
            results.append((env.now, item))

        def producer(env):
            yield env.timeout(5.0)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert results == [(5.0, "late")]

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        taken = [store.get(), store.get(), store.get()]
        env.run()
        assert [ev.value for ev in taken] == [0, 1, 2]

    def test_bounded_store_blocks_put(self, env):
        store = Store(env, capacity=1)
        first = store.put("a")
        second = store.put("b")
        env.run()
        assert first.triggered
        assert not second.triggered
        got = store.get()
        env.run()
        assert got.value == "a"
        assert second.triggered

    def test_len_reports_stored_items(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run()
        assert len(store) == 2

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

