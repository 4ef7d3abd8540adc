"""DES kernel edge cases and hot-path mechanisms added with the coalesced
wire fast path: calendar edge behaviour, event pooling, quiet processes,
inline grants/wake-ups, and the event counter that perfbench reads and
``tests/obs/test_zero_cost.py`` pins."""

import math

import pytest

from repro.des import Callback, Environment, PriorityResource, Resource, Store
from repro.des.events import NORMAL, URGENT
from repro.errors import SimulationError


@pytest.fixture
def env():
    return Environment()


class TestCalendarEdges:
    def test_peek_on_empty_calendar_is_inf(self, env):
        assert env.peek() == math.inf

    def test_peek_after_drain_is_inf_again(self, env):
        env.timeout(1.0)
        env.run()
        assert env.peek() == math.inf

    def test_urgent_beats_normal_at_the_same_time(self, env):
        order = []
        late = env.event()
        late._ok = True
        late._value = "urgent"
        late.callbacks.append(lambda ev: order.append(ev._value))
        early = env.event()
        early._ok = True
        early._value = "normal"
        early.callbacks.append(lambda ev: order.append(ev._value))
        # NORMAL scheduled first, URGENT second: priority outranks
        # insertion order at a shared timestamp.
        env.schedule(early, priority=NORMAL, delay=1.0)
        env.schedule(late, priority=URGENT, delay=1.0)
        env.run()
        assert order == ["urgent", "normal"]

    def test_rescheduling_a_processed_event_raises(self, env):
        ev = env.event()
        ev.succeed("x")
        env.run()
        with pytest.raises(SimulationError):
            env.schedule(ev)

    def test_timeout_value_is_plumbed_through(self, env):
        seen = []

        def proc():
            got = yield env.timeout(1.0, value="payload")
            seen.append(got)

        env.process(proc())
        env.run()
        assert seen == ["payload"]

    def test_run_until_horizon_runs_events_scheduled_at_the_horizon(self, env):
        """A callback running at the horizon may schedule more work *at*
        the horizon; ``run(until=h)`` executes it before stopping."""
        fired = []

        def chain():
            yield env.timeout(5.0)
            # now == 5.0 == the horizon: this zero-delay event is still due
            yield env.timeout(0.0)
            fired.append(env.now)

        env.process(chain())
        env.run(until=5.0)
        assert fired == [5.0]
        assert env.now == 5.0

    def test_run_until_horizon_leaves_later_events_pending(self, env):
        fired = []

        def late():
            yield env.timeout(5.0000001)
            fired.append(env.now)

        env.process(late())
        env.run(until=5.0)
        assert fired == []
        assert env.now == 5.0
        env.run(until=6.0)
        assert fired == [5.0000001]

    def test_events_processed_counts_every_pop(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        # init event + two timeouts + process completion
        assert env.events_processed == 4

    def test_events_processed_is_deterministic(self):
        def workload(env):
            def proc(delay):
                yield env.timeout(delay)
                yield env.timeout(delay)

            for d in (1.0, 2.0, 3.0):
                env.process(proc(d))

        counts = []
        for _ in range(2):
            env = Environment()
            workload(env)
            env.run()
            counts.append(env.events_processed)
        assert counts[0] == counts[1]


class TestCallbackPooling:
    def test_call_at_invokes_at_the_requested_time(self, env):
        seen = []
        env.call_at(2.5, seen.append, "a")
        env.call_at(1.5, seen.append, "b")
        env.run()
        assert seen == ["b", "a"]
        assert env.now == 2.5

    def test_callback_instances_are_recycled(self, env):
        env.call_at(1.0, lambda _a: None)
        env.run()
        # The processed Callback went back to the pool; the next call_at
        # must reuse it rather than allocate.
        assert len(env._cb_pool) == 1
        pooled = env._cb_pool[-1]
        env.call_at(2.0, lambda _a: None)
        assert not env._cb_pool
        assert env._queue[0][3] is pooled
        env.run()

    def test_recycled_callback_runs_again_correctly(self, env):
        seen = []
        env.call_at(1.0, seen.append, 1)
        env.run()
        env.call_at(2.0, seen.append, 2)
        env.run()
        assert seen == [1, 2]

    def test_callback_is_an_event_subclass(self, env):
        assert issubclass(Callback, type(env.event()))


class TestQuietProcesses:
    def test_quiet_process_completion_skips_the_calendar(self, env):
        def noop():
            yield env.timeout(1.0)

        env.process(noop(), quiet=True)
        env.run()
        # init + timeout only; no completion event
        assert env.events_processed == 2

    def test_quiet_process_with_a_waiter_still_fires(self, env):
        results = []

        def inner():
            yield env.timeout(1.0)
            return "done"

        def outer(target):
            results.append((yield target))

        target = env.process(inner(), quiet=True)
        env.process(outer(target))
        env.run()
        assert results == ["done"]

    def test_quiet_process_failure_still_stops_the_run(self, env):
        def boom():
            yield env.timeout(1.0)
            raise RuntimeError("kept visible")

        env.process(boom(), quiet=True)
        with pytest.raises(RuntimeError, match="kept visible"):
            env.run()

    def test_start_delay_defers_the_first_step(self, env):
        seen = []

        def proc():
            seen.append(env.now)
            yield env.timeout(1.0)

        env.process(proc(), start_delay=3.0)
        env.run()
        assert seen == [3.0]
        assert env.now == 4.0


class TestInlineGrant:
    def test_idle_inline_grant_continues_synchronously(self, env):
        order = []

        def requester():
            with res.request() as req:
                yield req
                order.append("granted")
                yield env.timeout(1.0)

        def bystander():
            order.append("bystander")
            yield env.timeout(0.5)

        res = Resource(env, capacity=1, inline_grant=True)
        env.process(requester())
        env.process(bystander())
        env.run()
        # The requester's init runs first and, with the inline grant, gets
        # the slot within its own event — before the bystander's init.
        assert order == ["granted", "bystander"]

    def test_inline_granted_request_is_released_on_exit(self, env):
        res = Resource(env, capacity=1, inline_grant=True)

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

        env.process(user())
        env.run()
        assert res.in_use == 0

    def test_contended_grant_still_goes_through_the_calendar(self, env):
        res = PriorityResource(env, capacity=1, inline_grant=True)
        grants = []

        def user(tag, hold):
            with res.request() as req:
                yield req
                grants.append((tag, env.now))
                yield env.timeout(hold)

        env.process(user("a", 2.0))
        env.process(user("b", 1.0))
        env.run()
        assert grants == [("a", 0.0), ("b", 2.0)]

    def test_timing_matches_the_event_based_resource(self, env):
        def scenario(inline):
            local = Environment()
            res = Resource(local, capacity=1, inline_grant=inline)
            log = []

            def user(tag, hold):
                with res.request() as req:
                    yield req
                    yield local.timeout(hold)
                log.append((tag, local.now))

            for i in range(4):
                local.process(user(i, 1.5))
            local.run()
            return log

        assert scenario(True) == scenario(False)


class TestInlineWakeup:
    def test_put_nowait_resumes_waiting_getter_synchronously(self, env):
        store = Store(env, inline_wakeup=True)
        got = []

        def consumer():
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert got == []
        baseline = env.events_processed
        store.put_nowait("item")
        # Delivered without any calendar activity at all.
        assert got == ["item"]
        assert env.events_processed == baseline

    def test_inline_wakeup_preserves_fifo_order(self, env):
        store = Store(env, inline_wakeup=True)
        got = []

        def consumer():
            while True:
                got.append((yield store.get()))

        env.process(consumer())
        env.run()
        for item in (1, 2, 3):
            store.put_nowait(item)
        env.run()
        assert got == [1, 2, 3]

    def test_nested_resume_restores_active_process(self, env):
        """A producer process that inline-wakes a consumer must still be
        the active process afterwards (Request attribution depends on it)."""
        store = Store(env, inline_wakeup=True)
        observed = []

        def consumer():
            yield store.get()

        def producer():
            me = env.active_process
            store.put_nowait("x")
            observed.append(env.active_process is me)
            yield env.timeout(0.0)

        env.process(consumer())
        env.run()
        env.process(producer())
        env.run()
        assert observed == [True]

    def test_plain_store_still_uses_the_calendar(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        store.put_nowait("item")
        assert got == []  # wake-up rides a calendar event
        env.run()
        assert got == ["item"]


class TestPutNowait:
    def test_put_nowait_skips_the_ack_event(self, env):
        store = Store(env)
        env.run()
        baseline = env.events_processed
        store.put_nowait("a")
        store.put_nowait("b")
        assert list(store.items) == ["a", "b"]
        env.run()
        assert env.events_processed == baseline

    def test_put_nowait_falls_back_when_bounded_store_is_full(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        store.put_nowait("b")  # full: rides the event-based putters queue
        assert list(store.items) == ["a"]

        def consumer():
            return (yield store.get())

        proc = env.process(consumer())
        env.run()
        assert proc._value == "a"
        assert list(store.items) == ["b"]
