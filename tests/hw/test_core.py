"""Tests for the Core model: run queue, priorities, busy and load accounting."""

import pytest

from repro.des import Environment, Timeout
from repro.errors import SimulationError
from repro.hw import APP_PRIORITY, SOFTIRQ_PRIORITY, Core
from repro.units import GHz, KiB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def core(env):
    return Core(env, index=0, clock_hz=2.7 * GHz)


def hold(env, core, duration, log, tag, priority=APP_PRIORITY):
    """A multi-phase holder: acquire, log the grant, run, release."""
    grant = core.acquire(priority)
    if grant is not None:
        yield grant
    try:
        log.append((tag, env.now))
        yield core.run_locked(duration, tag)
    finally:
        core.release()


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


def test_lower_priority_number_served_first(env, core):
    log = []
    env.process(hold(env, core, 1.0, log, "holder", priority=0))

    def submit(env):
        yield env.timeout(0.1)
        env.process(hold(env, core, 1.0, log, "low", priority=10))
        env.process(hold(env, core, 1.0, log, "high", priority=0))

    env.process(submit(env))
    env.run()
    assert [tag for tag, _ in log] == ["holder", "high", "low"]


def test_equal_priority_is_fifo(env, core):
    log = []
    for tag in ("x", "y", "z"):
        env.process(hold(env, core, 1.0, log, tag, priority=5))
    env.run()
    assert log == [("x", 0.0), ("y", 1.0), ("z", 2.0)]


def test_release_while_idle_raises(core):
    with pytest.raises(SimulationError):
        core.release()


def test_idle_core_is_granted_within_the_callers_step(env, core):
    order = []

    def requester():
        grant = core.acquire()
        order.append(("granted", grant))
        yield env.timeout(1.0)
        core.release()

    def bystander():
        order.append(("bystander", None))
        yield env.timeout(0.5)

    env.process(requester())
    env.process(bystander())
    env.run()
    # No grant event: the requester holds the core inside its own init
    # event, before the bystander's init runs.
    assert order == [("granted", None), ("bystander", None)]
    assert env.events_processed == 6  # two inits, two timeouts, two ends


def test_release_after_an_idle_grant_frees_the_core(env, core):
    env.process(core.run(1.0, "x"))
    env.run()
    assert core.acquire() is None


def test_contended_grant_goes_through_the_calendar(env, core):
    log = []
    env.process(hold(env, core, 2.0, log, "a"))
    env.process(hold(env, core, 1.0, log, "b"))
    env.run(until=1.0)
    assert log == [("a", 0.0)]
    assert core.run_queue_length == 1
    env.run()
    assert log == [("a", 0.0), ("b", 2.0)]
    # inits, two timeouts, one grant event, two process ends
    assert env.events_processed == 7


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


def test_held_but_stalled_on_a_bus_is_not_busy(env, core):
    core.acquire()
    assert not core.is_busy
    core.begin_stall()
    assert core.is_busy
    env.run(until=2.5)
    core.end_stall("migration", 0.0)
    assert not core.is_busy
    assert core.busy_by_category["migration"] == 2.5


def test_single_busy_interval(env, core):
    core.begin_stall()
    env.run(until=3.0)
    core.end_stall("migration", 0.0)
    assert core.busy_time == 3.0


def test_busy_time_includes_open_interval(env, core):
    core.begin_stall()
    env.run(until=2.5)
    assert core.busy_time == 2.5
    assert not core.busy_by_category  # charged only when the mark closes


def test_disjoint_busy_intervals_sum(env, core):
    core.begin_stall()
    env.run(until=1.0)
    core.end_stall("a", 0.0)
    env.run(until=5.0)
    core.begin_stall()
    env.run(until=7.0)
    core.end_stall("b", 5.0)
    assert core.busy_time == 3.0


def test_busy_close_without_open_raises(core):
    with pytest.raises(SimulationError):
        core.end_stall("x", 0.0)


def test_nested_busy_mark_raises(core):
    # The model never nests busy marks, so a nested open is a bug.
    core.begin_stall()
    with pytest.raises(SimulationError):
        core.begin_stall()


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
        core.acquire()
        try:
            yield from core.run_while(inner(env), "stall")
        finally:
            core.release()

    env.process(job(env))
    env.run()
    assert core.busy_time == pytest.approx(2.5)
    assert core.busy_by_category["stall"] == pytest.approx(2.5)


def test_run_while_accounts_even_on_inner_failure(env, core):
    def bomb(env):
        yield env.timeout(1.0)
        raise ValueError("inner died")

    def job(env):
        core.acquire()
        try:
            yield from core.run_while(bomb(env), "stall")
        finally:
            core.release()

    proc = env.process(job(env))
    with pytest.raises(ValueError):
        env.run(until=proc)
    # The busy interval was closed and the core released despite the
    # exception.
    assert not core.is_busy
    assert core.busy_by_category["stall"] == pytest.approx(1.0)
    assert core.acquire() is None


def test_multiphase_run_locked(env, core):
    def job(env):
        grant = core.acquire(APP_PRIORITY)
        if grant is not None:
            yield grant
        try:
            yield core.run_locked(1.0, "phase1")
            yield core.run_locked(2.0, "phase2")
        finally:
            core.release()

    env.process(job(env))
    env.run()
    assert core.busy_by_category["phase1"] == pytest.approx(1.0)
    assert core.busy_by_category["phase2"] == pytest.approx(2.0)
    assert core.busy_time == pytest.approx(3.0)


class TestKnownAnswers:
    """One scripted schedule, read at fixed instants.

    The values were recorded from the core built on the kernel's generic
    priority resource and interval accumulator, before the core owned its
    run queue and busy interval; irqbalance steers by :meth:`Core.load`,
    so its EWMA arithmetic must stay bit-identical.  The schedule covers
    softirq-over-app contention, a ``run_while`` stall, a stall opened
    while holding the core, and idle gaps.

    The schedule once also withdrew a waiter, which the core no longer
    supports.  Dropping that waiter changed two values, which were
    re-recorded from the owned-queue core just before the withdrawal path
    went: the 0.35 s reading (two queued jobs, not three, and its load)
    and the calendar's event count (29, not 33).  Every other reading is
    still the one recorded from the generic priority resource.
    """

    #: (instant, busy_time.hex(), load().hex(), run_queue_length, is_busy)
    READINGS = [
        (0.1, "0x1.999999999999ap-4", "0x1.a1d2a7274c432p+0", 0, True),
        (0.35, "0x1.6666666666666p-2", "0x1.fc227dfce3601p+1", 2, True),
        (0.45, "0x1.ccccccccccccdp-2", "0x1.fe93fafb96a3cp+1", 2, True),
        (1.25, "0x1.4000000000000p+0", "0x1.ffffe0bd12c09p+1", 2, True),
        (2.5, "0x1.4000000000000p+1", "0x1.fffffffff0baep+0", 0, True),
        (2.6, "0x1.4cccccccccccdp+1", "0x1.fffffffffa61fp+0", 0, True),
        (3.0, "0x1.6000000000000p+1", "0x1.50385c094d9cep-4", 0, False),
        (4.25, "0x1.8000000000000p+1", "0x1.eafc7f6142346p+0", 0, True),
        (5.05, "0x1.a000000000000p+1", "0x1.0a06a9f73ca89p-8", 0, False),
        (5.2, "0x1.acccccccccccep+1", "0x1.a20e02e96ccd0p+0", 0, True),
        (8.0, "0x1.b99999999999ap+1", "0x1.c99e68a820722p-40", 0, False),
    ]
    BY_CATEGORY = {
        "compute": 1.0,
        "softirq": 0.5,
        "copy": 0.75,
        "phase": 0.2,
        "stall": 0.2999999999999998,
        "late": 0.5,
        "migration": 0.20000000000000018,
    }
    DONE = [
        ("compute", 1.0),
        ("softirq", 1.5),
        ("copy", 2.25),
        ("staller", 2.25),
        ("late", 4.5),
    ]

    def schedule(self):
        env = Environment()
        core = Core(env, index=0, clock_hz=2.7 * GHz)
        done = []

        def job(tag, start, duration, priority):
            yield env.timeout(start)
            yield from core.run(duration, tag, priority)
            done.append((tag, env.now))

        def inner():
            yield env.timeout(0.3)

        def staller():
            yield env.timeout(1.2)
            grant = core.acquire(APP_PRIORITY)
            if grant is not None:
                yield grant
            try:
                done.append(("staller", env.now))
                yield core.run_locked(0.2, "phase")
                yield from core.run_while(inner(), "stall")
            finally:
                core.release()

        def bus_stall():
            yield env.timeout(5.0)
            grant = core.acquire(APP_PRIORITY)
            if grant is not None:
                yield grant
            try:
                yield env.timeout(0.1)  # queued on a bus: held, not busy
                started = env.now
                core.begin_stall()
                yield env.timeout(0.2)
                core.end_stall("migration", started)
            finally:
                core.release()

        env.process(job("compute", 0.0, 1.0, APP_PRIORITY))
        env.process(job("copy", 0.25, 0.75, APP_PRIORITY))
        env.process(job("softirq", 0.25, 0.5, SOFTIRQ_PRIORITY))
        env.process(staller())
        env.process(job("late", 4.0, 0.5, APP_PRIORITY))
        env.process(bus_stall())
        readings = []
        for instant, *_ in self.READINGS:
            env.run(until=instant)
            readings.append(
                (
                    instant,
                    core.busy_time.hex(),
                    core.load().hex(),
                    core.run_queue_length,
                    core.is_busy,
                )
            )
        return env, core, done, readings

    def test_readings_at_fixed_instants(self):
        _env, _core, _done, readings = self.schedule()
        assert readings == self.READINGS

    def test_busy_by_category(self):
        _env, core, _done, _readings = self.schedule()
        assert dict(core.busy_by_category) == self.BY_CATEGORY
        assert core.busy_time.hex() == "0x1.b99999999999ap+1"

    def test_completion_order_and_calendar(self):
        env, _core, done, _readings = self.schedule()
        assert done == self.DONE
        assert env.events_processed == 29
        assert env.now == 8.0


def test_run_locked_returns_its_timeout_and_closes_before_the_holder(
    env, core
):
    seen = []

    def job():
        core.acquire()
        phase = core.run_locked(1.5, "copy")
        seen.append(isinstance(phase, Timeout))
        yield phase
        seen.append((core.is_busy, core.busy_by_category["copy"]))
        core.release()

    env.process(job())
    env.run()
    assert seen == [True, (False, 1.5)]
    assert core.busy_time == 1.5


#: A compute phase of the model's shape: 64 KiB chunks at an encryption
#: rate whose chunk durations do not add up exactly in binary.
CHUNK = 64 * KiB
RATE = 300e6


def chunk_ends(start, amount):
    """The loop's chunk ends ``b_k = b_(k-1) + d_k``, in its own floats."""
    ends = []
    end = start
    left = amount
    while left > 0:
        piece = min(CHUNK, left)
        end = end + piece / RATE
        ends.append(end)
        left -= piece
    return ends


def chunk_loop(core, amount, log):
    """The reference: one :meth:`Core.run` per chunk, releasing the core
    at every chunk end."""
    left = amount
    while left > 0:
        piece = min(CHUNK, left)
        yield from core.run(piece / RATE, "compute", APP_PRIORITY)
        left -= piece
    log.append(("compute done", core.env.now.hex()))


def chunk_train(core, amount, log):
    """The same phase as trains, the way ``ClientNode.compute`` runs it."""
    left = amount
    while left > 0:
        grant = core.acquire(APP_PRIORITY)
        if grant is not None:
            yield grant
        try:
            left = yield core.run_chunks(left, CHUNK, RATE, "compute")
        finally:
            core.release()
    log.append(("compute done", core.env.now.hex()))


def visit(env, core, at, duration, tag, priority, log):
    """A job that claims the core at ``at`` and logs its grant instant."""
    yield env.timeout(at)
    grant = core.acquire(priority)
    if grant is not None:
        yield grant
    log.append((tag, env.now.hex()))
    try:
        yield core.run_locked(duration, tag)
    finally:
        core.release()


def reading(core):
    return (
        core.env.now.hex(),
        core.busy_time.hex(),
        core.load().hex(),
        core.run_queue_length,
        core.is_busy,
        dict(core.busy_by_category),
    )


def read_at(env, core, instants, log):
    """Read the core at each instant, through a timeout created now (at
    0), so a read runs ahead of a chunk end at the same instant."""

    def read(instant):
        yield env.timeout(instant)
        log.append(("read",) + reading(core))

    for instant in instants:
        env.process(read(instant))


def no_waiter(env, core, phase, log):
    env.process(phase(core, 10 * CHUNK + CHUNK // 2, log))


def softirq_mid_chunk(env, core, phase, log):
    ends = chunk_ends(0.0, 10 * CHUNK)
    env.process(phase(core, 10 * CHUNK, log))
    for k, tag in ((3, "irq-a"), (7, "irq-b")):
        middle = (ends[k - 1] + ends[k]) / 2
        env.process(visit(env, core, middle, 5e-6, tag, SOFTIRQ_PRIORITY, log))


def softirq_at_a_chunk_end(env, core, phase, log):
    # Its timeout is older than the loop's chunk timeout, so it claims the
    # core first and the loop hands over at this very chunk end.
    ends = chunk_ends(0.0, 10 * CHUNK)
    env.process(phase(core, 10 * CHUNK, log))
    env.process(visit(env, core, ends[3], 5e-6, "irq", SOFTIRQ_PRIORITY, log))


def waiters_before_the_train(env, core, phase, log):
    # The holder releases at 1 ms to the phase; an APP job queued behind
    # it and a softirq that claims the core before the phase's grant event
    # runs are both waiting when the first train starts.
    env.process(visit(env, core, 0.0, 1e-3, "holder", APP_PRIORITY, log))
    env.process(phase(core, 6 * CHUNK, log))
    env.process(visit(env, core, 0.5e-3, 2e-5, "app", APP_PRIORITY, log))
    env.process(visit(env, core, 1e-3, 5e-6, "irq", SOFTIRQ_PRIORITY, log))


def reads_during_the_train(env, core, phase, log):
    ends = chunk_ends(0.0, 8 * CHUNK)
    instants = [
        ends[0] / 3,
        ends[1],
        (ends[1] + ends[2]) / 2,
        ends[4],
        (ends[5] + ends[6]) / 2,
        ends[-1],
    ]
    env.process(phase(core, 8 * CHUNK, log))
    read_at(env, core, instants, log)
    middle = (ends[2] + ends[3]) / 2
    env.process(visit(env, core, middle, 5e-6, "irq", SOFTIRQ_PRIORITY, log))


def short_last_chunk(env, core, phase, log):
    amount = 3 * CHUNK + 1000
    ends = chunk_ends(0.0, amount)
    env.process(phase(core, amount, log))
    middle = (ends[2] + ends[3]) / 2
    read_at(env, core, [ends[2], middle], log)
    env.process(visit(env, core, middle, 5e-6, "irq", SOFTIRQ_PRIORITY, log))


def more_edges_than_the_fold_bound(env, core, phase, log):
    def softirqs():
        for _ in range(30):
            yield from core.run(7e-6, "softirq", SOFTIRQ_PRIORITY)
            yield env.timeout(3e-6)

    def delayed_phase():
        yield env.timeout(1e-3)
        yield from phase(core, 40 * CHUNK, log)

    env.process(softirqs())
    env.process(delayed_phase())
    env.process(visit(env, core, 4e-3, 9e-6, "irq", SOFTIRQ_PRIORITY, log))
    read_at(env, core, [0.2e-3, 2.5e-3, 6e-3, 9.9e-3], log)


SCHEDULES = [
    no_waiter,
    softirq_mid_chunk,
    softirq_at_a_chunk_end,
    waiters_before_the_train,
    reads_during_the_train,
    short_last_chunk,
    more_edges_than_the_fold_bound,
]


def play(schedule, phase):
    env = Environment()
    core = Core(env, index=0, clock_hz=2.7 * GHz)
    log = []
    schedule(env, core, phase, log)
    env.run()
    return env, log + [("end",) + reading(core)]


class TestTrainMatchesChunkLoop:
    """A train accounts exactly what the loop of one ``run`` per chunk
    did: the same grant instants, busy seconds, categories, load estimate
    and queue, read during the phase and after it, to the bit."""

    @pytest.mark.parametrize(
        "schedule", SCHEDULES, ids=[s.__name__ for s in SCHEDULES]
    )
    def test_same_readings_and_grants(self, schedule):
        loop_env, loop_log = play(schedule, chunk_loop)
        train_env, train_log = play(schedule, chunk_train)
        assert train_log == loop_log
        assert train_env.events_processed < loop_env.events_processed

    def test_an_uncontended_phase_is_one_calendar_entry(self):
        # An init, the train's one entry and the process end; the loop
        # spends one timeout per chunk instead.
        loop_env, _ = play(no_waiter, chunk_loop)
        train_env, _ = play(no_waiter, chunk_train)
        assert (loop_env.events_processed, train_env.events_processed) == (
            13,
            3,
        )

    def test_a_split_ends_at_the_first_chunk_end_after_the_claim(self):
        ends = chunk_ends(0.0, 10 * CHUNK)
        _, log = play(softirq_mid_chunk, chunk_train)
        grants = [entry for entry in log if entry[0].startswith("irq")]
        assert grants[0] == ("irq-a", ends[3].hex())
        # The phase resumes after the 5 us softirq, on a new chain.
        resumed = chunk_ends(ends[3] + 5e-6, 6 * CHUNK)
        claim = (ends[6] + ends[7]) / 2
        first = next(end for end in resumed if end >= claim)
        assert grants[1] == ("irq-b", first.hex())

    def test_only_an_exact_tie_with_the_last_chunk_end_differs(self):
        """The train's entry is created when the train starts, the loop's
        last timeout one chunk before the end.  So an event created in
        between that lands on the last chunk end's exact float instant
        runs after the train's end but before the loop's: a read there
        sees the phase over.  Busy seconds read the same either way."""
        ends = chunk_ends(0.0, 4 * CHUNK)

        def schedule(env, core, phase, log):
            env.process(phase(core, 4 * CHUNK, log))
            read_at(env, core, [ends[-1]], log)

        _, loop_log = play(schedule, chunk_loop)
        _, train_log = play(schedule, chunk_train)
        loop_read = loop_log[0]
        train_read = train_log[1]
        assert loop_read[:3] == train_read[:3]  # the instant, busy seconds
        assert (loop_read[5], train_read[5]) == (True, False)  # is_busy
        assert float.fromhex(loop_read[3]) == float.fromhex(train_read[3]) + 1
        assert loop_log[1:] == [train_log[0]] + train_log[2:]

    def test_known_answers_of_the_per_mark_fold(self):
        """Readings of ``more_edges_than_the_fold_bound`` recorded from the
        core that folded its load estimate at every mark; both phases,
        with 60 softirq edges and 80 chunk edges, reproduce them."""
        want = [
            ("0x1.a36e2eb1c432dp-13", "0x1.2599ed7c6fbd5p-13",
             "0x1.005ba847297bap+0", 0),
            ("0x1.47ae147ae147bp-9", "0x1.c044284dfce32p-10",
             "0x1.0456218d70ca7p+0", 0),
            ("0x1.89374bc6a7efap-8", "0x1.55714b9cb6849p-8",
             "0x1.0cfe0831b99edp+0", 0),
            ("0x1.4467381d7dbf5p-7", "0x1.2581e15dc51f2p-7",
             "0x1.5e569ba9d02a4p-4", 0),
        ]
        by_category = {
            "softirq": 0.00021000000000000004,
            "compute": 0.00873813333333334,
            "irq": 9e-06,
        }
        for phase in (chunk_loop, chunk_train):
            _, log = play(more_edges_than_the_fold_bound, phase)
            reads = [entry[1:5] for entry in log if entry[0] == "read"]
            assert reads == want
            assert log[-1][-1] == by_category
