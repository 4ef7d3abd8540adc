"""DES kernel edge cases and hot-path mechanisms added with the coalesced
wire fast path: calendar edge behaviour, event pooling, quiet processes,
acknowledgement-free puts, and the event counter that perfbench reads and
``tests/obs/test_zero_cost.py`` pins.  The in-place grants and wake-ups of
the per-strip path live with their owners, in ``tests/hw/test_core.py``
and ``tests/kernel/test_kernel.py``."""

import math

import pytest

from repro.des import Environment, Store
from repro.des.events import NORMAL, URGENT, Callback
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

    def test_start_at_defers_the_first_step(self, env):
        seen = []

        def proc():
            seen.append(env.now)
            yield env.timeout(1.0)

        env.process(proc(), start_at=3.0)
        env.run()
        assert seen == [3.0]
        assert env.now == 4.0

    def test_start_at_orders_like_a_timeout_created_now(self, env):
        order = []

        def tagged(tag):
            order.append(tag)
            yield env.timeout(0.0)

        def witness():
            yield env.timeout(2.0)
            order.append("timeout")

        env.process(witness())
        env.run(until=1.0)
        # Created after the witness's timeout, so it runs after it; an
        # earlier-created timeout still runs first at the same instant.
        env.process(tagged("started"), start_at=2.0)
        env.run()
        assert order == ["timeout", "started"]

    def test_start_at_now_is_an_immediate_start(self, env):
        order = []

        def proc():
            order.append("started")
            yield env.timeout(0.0)

        env.timeout(0.0).callbacks.append(lambda _e: order.append("timeout"))
        env.process(proc(), start_at=env.now)
        env.run()
        # URGENT, like a start with no deferral: ahead of the earlier
        # same-instant timeout.
        assert order == ["started", "timeout"]

    def test_start_at_in_the_past_is_rejected(self, env):
        env.run(until=2.0)

        def proc():
            yield env.timeout(1.0)

        with pytest.raises(SimulationError):
            env.process(proc(), start_at=1.0)


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

    def test_put_nowait_wakes_a_getter_through_the_calendar(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        baseline = env.events_processed
        store.put_nowait("item")
        assert got == []  # wake-up rides a calendar event
        env.run()
        assert got == ["item"]
        assert env.events_processed == baseline + 2  # wake-up, process end
        assert len(store) == 0

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
