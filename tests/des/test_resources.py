"""Tests for Resource and Store."""

import pytest

from repro.des import Environment, Resource, Store
from repro.errors import SimulationError


@pytest.fixture
def env():
    return Environment()


def hold(env, resource, duration, log, tag):
    with resource.request() as req:
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

    def test_get_takes_a_waiting_item_with_one_event(self, env):
        store = Store(env)
        store.put_nowait("a")
        store.put_nowait("b")
        got = store.get()
        assert got.triggered and got.value == "a"
        assert list(store.items) == ["b"]
        env.run()
        assert env.events_processed == 1

    def test_getter_waiting_behind_a_full_store_gets_items_in_order(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        blocked = store.put("b")
        first, second = store.get(), store.get()
        env.run()
        assert (first.value, second.value) == ("a", "b")
        assert blocked.triggered
        assert len(store) == 0

