"""The fixed-service FIFO: one calendar event per job, created at the grant
decision on both the idle and the queued path (DESIGN.md §8, "The server
tier and fixed-service hops")."""

import pytest

from repro.des import Environment, FixedServiceFifo, Resource
from repro.errors import SimulationError
from repro.units import sum_left


@pytest.fixture
def env():
    return Environment()


def _record(log, tag, env):
    return lambda event: log.append((tag, env.now, event.value))


class TestFifoOrderAndServiceTimes:
    def test_jobs_complete_in_request_order_back_to_back(self, env):
        fifo = FixedServiceFifo(env)
        log = []
        for tag, service in (("a", 1.0), ("b", 2.0), ("c", 0.5)):
            fifo.serve(service).callbacks.append(_record(log, tag, env))
        env.run()
        # (tag, completion instant, grant instant)
        assert log == [("a", 1.0, 0.0), ("b", 3.0, 1.0), ("c", 3.5, 3.0)]

    def test_an_idle_gap_restarts_service_at_the_request(self, env):
        fifo = FixedServiceFifo(env)
        log = []

        def late():
            yield env.timeout(5.0)
            granted_at = yield fifo.serve(1.0)
            log.append((env.now, granted_at))

        fifo.serve(1.0)
        env.process(late())
        env.run()
        assert log == [(6.0, 5.0)]

    def test_process_resumes_with_the_grant_instant(self, env):
        fifo = FixedServiceFifo(env)
        seen = []

        def job(service):
            granted_at = yield fifo.serve(service)
            seen.append((env.now, granted_at))

        env.process(job(2.0))
        env.process(job(3.0))
        env.run()
        assert seen == [(2.0, 0.0), (5.0, 2.0)]

    def test_on_grant_runs_at_the_grant_instant(self, env):
        fifo = FixedServiceFifo(env)
        grants = []
        fifo.serve(1.5, lambda: grants.append(("first", env.now)))
        fifo.serve(1.0, lambda: grants.append(("second", env.now)))
        assert grants == [("first", 0.0)]
        env.run()
        assert grants == [("first", 0.0), ("second", 1.5)]

    def test_negative_service_rejected(self, env):
        with pytest.raises(SimulationError):
            FixedServiceFifo(env).serve(-1.0)

    def test_completion_times_match_resource_plus_timeout(self):
        """Same departures as the grant + service-timeout hop it replaced,
        for arrivals that tie, overlap and leave the queue idle."""
        arrivals = [(0.0, 1.0), (0.0, 0.25), (0.5, 2.0), (1.0, 0.5),
                    (4.0, 1.0), (4.0, 1.0), (9.0, 0.125)]

        def run(make_hop):
            env = Environment()
            hop, busy_time = make_hop(env)
            done = []

            def job(i, at, service):
                yield env.timeout(at)
                yield from hop(env, service)
                done.append((i, env.now))

            for i, (at, service) in enumerate(arrivals):
                env.process(job(i, at, service))
            env.run()
            return done, env.events_processed, busy_time()

        def fifo_hop(env):
            fifo = FixedServiceFifo(env)

            def hop(env, service):
                yield fifo.serve(service)

            return hop, lambda: fifo.busy_time

        def resource_hop(env):
            resource = Resource(env)
            held = []

            def hop(env, service):
                with resource.request() as req:
                    yield req
                    yield env.timeout(service)
                    held.append(service)

            return hop, lambda: sum_left(held)

        fifo_done, fifo_events, fifo_busy = run(fifo_hop)
        resource_done, resource_events, resource_busy = run(resource_hop)
        assert fifo_done == resource_done
        assert resource_events - fifo_events == len(arrivals)
        assert fifo_busy == resource_busy


class TestBusyTime:
    def test_back_to_back_jobs_sum_their_service(self, env):
        fifo = FixedServiceFifo(env)
        for service in (1.0, 2.0, 0.5):
            fifo.serve(service)
        env.run()
        assert fifo.busy_time == 3.5

    def test_an_idle_gap_is_not_busy(self, env):
        fifo = FixedServiceFifo(env)

        def late():
            yield env.timeout(5.0)
            yield fifo.serve(1.0)

        fifo.serve(1.0)
        env.process(late())
        env.run()
        assert env.now == 6.0
        assert fifo.busy_time == 2.0

    def test_a_job_in_service_is_not_counted(self, env):
        fifo = FixedServiceFifo(env)
        fifo.serve(1.0)
        fifo.serve(2.0)
        env.run(until=0.5)
        assert fifo.busy_time == 0.0
        env.run(until=2.0)  # the second job is in service from 1.0 to 3.0
        assert fifo.busy_time == 1.0
        env.run()
        assert fifo.busy_time == 3.0


class TestCompletionIsCreatedAtGrant:
    def test_idle_path_schedules_the_completion_at_the_request(self, env):
        fifo = FixedServiceFifo(env)
        fifo.serve(2.5)
        # On the calendar already: no grant event, one completion.
        assert env.peek() == 2.5
        env.run()
        assert env.events_processed == 1

    def test_queued_path_schedules_the_completion_at_the_release(self, env):
        fifo = FixedServiceFifo(env)
        fifo.serve(1.0)
        fifo.serve(2.0)
        assert env.peek() == 1.0
        assert len(env._queue) == 1  # the queued job is not on the calendar
        env.run(until=1.0)
        # The holder's completion handed the server on: the next job's
        # completion was put on the calendar inside that same event.
        assert env.events_processed == 1
        assert env.peek() == 3.0
        env.run()
        assert env.events_processed == 2

    def test_equal_service_completions_keep_grant_decision_order(self, env):
        """The property the fold rests on.

        At t=1 hop A's holder releases and grants A's queued job; later in
        that instant idle hop B grants a job.  Both have service 1, so
        both complete at t=2, and they must do so in grant-decision
        order: A's job first, as with a grant event plus a service
        timeout on each.  A fold of the idle path alone (an idle grant
        scheduling its completion at once, a queued grant still waiting
        for its grant event) completes B's job first."""
        a = FixedServiceFifo(env)
        b = FixedServiceFifo(env)
        order = []
        a.serve(1.0)
        a.serve(1.0).callbacks.append(lambda _e: order.append("A queued"))

        def request_b(_event):
            b.serve(1.0).callbacks.append(lambda _e: order.append("B idle"))

        # Created after A's first completion, so it runs after the release.
        env.timeout(1.0).callbacks.append(request_b)
        env.run()
        assert env.now == 2.0
        assert order == ["A queued", "B idle"]

    def test_resource_reference_agrees_on_that_tie(self, env):
        """The same scenario on grant + timeout hops: the order above is the
        one the replaced code produced."""
        a = Resource(env)
        b = Resource(env)
        order = []

        def hold(resource, tag, delay=0.0):
            if delay:
                yield env.timeout(delay)
            with resource.request() as req:
                yield req
                yield env.timeout(1.0)
            if tag:
                order.append(tag)

        env.process(hold(a, None))
        env.process(hold(a, "A queued"))
        # B's wake-up is created after A's first service timeout, so at
        # t=1 it runs after A's release, as in the test above.
        env.run(until=0.5)
        env.process(hold(b, "B idle", delay=0.5))
        env.run()
        assert order == ["A queued", "B idle"]
