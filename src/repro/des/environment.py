"""The simulation environment: virtual clock plus event calendar."""

from __future__ import annotations

import typing as t
from heapq import heappop, heappush
from itertools import count

from ..errors import SimulationError
from .events import NORMAL, Callback, Event, Timeout, _invoke_callback

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process

__all__ = ["Environment"]

_GeneratorT = t.Generator[Event, t.Any, t.Any]

#: Upper bound on recycled :class:`~repro.des.events.Callback` events kept
#: per environment.  Past this the free list stops growing; overflow events
#: are simply garbage-collected.
_CB_POOL_LIMIT = 256


class Environment:
    """Owns the virtual clock and executes events in timestamp order.

    Ties are broken by scheduling priority (URGENT before NORMAL) and then
    by insertion order, which makes runs fully deterministic.

    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(3.0)
    ...     return "done"
    >>> proc = env.process(hello(env))
    >>> env.run()
    >>> env.now
    3.0
    >>> proc.value
    'done'
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self.active_process: "Process | None" = None
        #: Events popped off the calendar and dispatched so far.  This is
        #: the DES cost metric perfbench records as ``des.events``: wall
        #: time per run is dominated by event count times constant factor.
        self.events_processed = 0
        # Free list of recycled Callback events (see :meth:`call_at`).
        self._cb_pool: list[Callback] = []

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: _GeneratorT,
        *,
        quiet: bool = False,
        start_delay: float = 0.0,
    ) -> "Process":
        """Start ``generator`` as a new simulation process.

        ``quiet`` marks an internal process nobody awaits: if it finishes
        successfully with no subscribed callbacks, its completion is
        recorded in place instead of via a calendar event (failures still
        schedule, so an unawaited crash stops the world as always).

        ``start_delay`` defers the generator's first resumption by that
        much virtual time — equivalent to an immediate process whose body
        starts with ``yield env.timeout(start_delay)``, minus one event.
        """
        from .process import Process

        return Process(self, generator, quiet=quiet, start_delay=start_delay)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered event on the calendar ``delay`` from now."""
        if event.callbacks is None:
            raise SimulationError(
                f"cannot schedule {event!r}: it has already been processed"
            )
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def call_at(self, when: float, fn: t.Callable[[t.Any], None], arg: t.Any = None) -> None:
        """Run ``fn(arg)`` at absolute virtual time ``when``.

        Internal fast path for model code that needs a plain deferred call
        with no waiters: the carrying :class:`~repro.des.events.Callback`
        events come from (and return to) a per-environment free list, so
        steady-state scheduling allocates nothing.  Callers must not hold
        references to the underlying event — there is deliberately no way
        to get one.
        """
        pool = self._cb_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = [_invoke_callback]
            ev._defused = False
        else:
            ev = Callback(self)
        ev.fn = fn
        ev.arg = arg
        heappush(self._queue, (when, NORMAL, next(self._eid), ev))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: float | Event | None = None) -> t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the calendar is empty;
            a number
                run until that virtual time (the clock lands exactly on
                it).  Events scheduled *at* the horizon — including ones
                scheduled by callbacks of the final step — still run
                before the clock is pinned;
            an :class:`Event`
                run until that event is processed and return its value.
        """
        if until is None or isinstance(until, Event):
            return self._run_loop(until, float("inf"))

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} which is before now={self._now}"
            )
        self._run_loop(None, horizon)
        self._now = horizon
        return None

    def _run_loop(self, until: Event | None, horizon: float) -> t.Any:
        """The one dispatch loop: pop and run events in calendar order
        until ``until`` fires, the calendar empties, or the next event
        lies past ``horizon``.  The heap operation and counters are bound
        to locals; every simulation spends nearly all of its wall time
        here."""
        stop = until
        flag: list[bool] = []
        if stop is not None:
            if stop.callbacks is None:  # already processed
                return stop._value
            stop.callbacks.append(flag.append)
        queue = self._queue
        pop = heappop
        pool = self._cb_pool
        dispatched = 0
        try:
            while queue and not flag and queue[0][0] <= horizon:
                when, _, _, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                if callbacks is None:
                    raise SimulationError(f"{event!r} processed twice")
                event.callbacks = None
                dispatched += 1
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure that no process absorbed: stop the world
                    # so bugs in models cannot silently vanish.
                    raise event._value
                if event.__class__ is Callback and len(pool) < _CB_POOL_LIMIT:
                    pool.append(event)
        finally:
            self.events_processed += dispatched
        if stop is None:
            return None
        if not flag:
            raise SimulationError(
                "simulation ended before the awaited event fired"
            )
        if not stop._ok:
            stop.defuse()
            raise stop._value
        return stop._value
