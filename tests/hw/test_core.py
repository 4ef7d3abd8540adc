"""Tests for the Core model: occupancy, priorities, accounting."""

import pytest

from repro.des import Environment
from repro.hw import APP_PRIORITY, SOFTIRQ_PRIORITY, Core
from repro.units import GHz


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def core(env):
    return Core(env, index=0, clock_hz=2.7 * GHz)


def test_run_accumulates_busy_time(env, core):
    env.process(core.run(2.0, "compute"))
    env.run()
    assert core.busy_time == pytest.approx(2.0)
    assert core.busy_by_category["compute"] == pytest.approx(2.0)


def test_serializes_work(env, core):
    env.process(core.run(1.0, "a"))
    env.process(core.run(1.0, "b"))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_softirq_priority_jumps_queue(env, core):
    order = []

    def job(tag, duration, priority):
        yield from core.run(duration, tag, priority)
        order.append(tag)

    def submit(env):
        env.process(job("holder", 1.0, APP_PRIORITY))
        yield env.timeout(0.1)
        env.process(job("app", 1.0, APP_PRIORITY))
        env.process(job("softirq", 0.5, SOFTIRQ_PRIORITY))

    env.process(submit(env))
    env.run()
    assert order == ["holder", "softirq", "app"]


def test_unhalted_cycles_scale_with_clock(env):
    slow = Core(env, 0, clock_hz=1 * GHz)
    fast = Core(env, 1, clock_hz=2 * GHz)
    env.process(slow.run(1.0, "x"))
    env.process(fast.run(1.0, "x"))
    env.run()
    assert fast.unhalted_cycles() == pytest.approx(2 * slow.unhalted_cycles())


def test_run_queue_length(env, core):
    env.process(core.run(1.0, "x"))
    env.process(core.run(1.0, "y"))
    env.process(core.run(1.0, "z"))
    env.run(until=0.5)
    assert core.run_queue_length == 2


def test_is_busy_flag(env, core):
    env.process(core.run(1.0, "x"))
    env.run(until=0.5)
    assert core.is_busy
    env.run()
    assert not core.is_busy


def test_load_reflects_queue_pressure(env, core):
    env.process(core.run(1.0, "x"))
    env.process(core.run(1.0, "y"))
    env.run(until=0.5)
    # one running + one queued
    assert core.load() >= 2.0


def test_load_decays_when_idle(env, core):
    env.process(core.run(0.5, "x"))
    env.run()
    load_right_after = core.load()
    env.run(until=env.now + 10.0)
    assert core.load() < load_right_after
    assert core.load() < 0.01


def test_run_while_stays_busy_for_inner_duration(env, core):
    def inner(env):
        yield env.timeout(2.5)

    def job(env):
        with core.request() as req:
            yield req
            yield from core.run_while(inner(env), "stall")

    env.process(job(env))
    env.run()
    assert core.busy_time == pytest.approx(2.5)
    assert core.busy_by_category["stall"] == pytest.approx(2.5)


def test_run_while_accounts_even_on_inner_failure(env, core):
    def bomb(env):
        yield env.timeout(1.0)
        raise ValueError("inner died")

    def job(env):
        with core.request() as req:
            yield req
            yield from core.run_while(bomb(env), "stall")

    proc = env.process(job(env))
    with pytest.raises(ValueError):
        env.run(until=proc)
    # The busy interval was closed despite the exception.
    assert not core.is_busy
    assert core.busy_by_category["stall"] == pytest.approx(1.0)


def test_multiphase_run_locked(env, core):
    def job(env):
        with core.request(priority=APP_PRIORITY) as req:
            yield req
            yield from core.run_locked(1.0, "phase1")
            yield from core.run_locked(2.0, "phase2")

    env.process(job(env))
    env.run()
    assert core.busy_by_category["phase1"] == pytest.approx(1.0)
    assert core.busy_by_category["phase2"] == pytest.approx(2.0)
    assert core.busy_time == pytest.approx(3.0)
