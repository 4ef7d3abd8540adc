"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot future on an :class:`Environment`'s calendar.
It starts *pending*, becomes *triggered* when given a value (or an error) and
scheduled, and becomes *processed* once the environment has invoked its
callbacks.  Processes wait on events by ``yield``-ing them.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .environment import Environment

__all__ = [
    "Event",
    "Timeout",
    "Callback",
    "AllOf",
    "PENDING",
]

#: Sentinel for "this event has no value yet".
PENDING: t.Any = object()

#: Scheduling priority classes: URGENT events at a timestamp are processed
#: before NORMAL ones.  Used internally (immediate process start) — ordinary
#: user events are NORMAL.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot future that fires at a point in virtual time.

    Parameters
    ----------
    env:
        The environment whose calendar the event lives on.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (with the event) when the event is processed.
        #: Becomes ``None`` once processed.
        self.callbacks: list[t.Callable[["Event"], None]] | None = []
        self._value: t.Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (or error) and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("value of untriggered event is not available")
        return self._ok

    @property
    def value(self) -> t.Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it won't crash the simulation."""
        self._defused = True

    # -- triggering -------------------------------------------------------

    def succeed(self, value: t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into any waiting process; if nothing waits,
        the simulation stops with the exception (unless :meth:`defuse`\\ d).
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` seconds of virtual time after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: t.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Fast construct: a Timeout is born triggered, so the generic
        # Event init + succeed + Environment.schedule round-trip is pure
        # overhead on the kernel's hottest allocation path.  Inline all
        # three (the scheduling tuple must match Environment.schedule's
        # exactly: (time, priority, insertion id, event)).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(
            env._queue, (env._now + delay, NORMAL, next(env._eid), self)
        )


def _invoke_callback(event: "Callback") -> None:
    """The single callback every :class:`Callback` event carries."""
    event.fn(event.arg)


class Callback(Event):
    """Internal event that runs ``fn(arg)`` when processed.

    Created and recycled exclusively by
    :meth:`~repro.des.environment.Environment.call_at`: the environment
    keeps finished instances on a free list and re-arms them, so the
    steady state allocates no event objects at all.  Never exposed to
    model code — nothing may wait on one or keep a reference.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks = [_invoke_callback]
        self._value = None
        self._ok = True
        self._defused = False
        self.fn: t.Callable[[t.Any], None] | None = None
        self.arg: t.Any = None


class AllOf(Event):
    """Fires when *all* child events have fired (or fails on first failure).

    Its value is a dict mapping each child event to its value, in firing
    order.
    """

    __slots__ = ("events", "_fired")

    def __init__(self, env: "Environment", events: t.Sequence[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._fired: list[Event] = []
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events:
            # Degenerate case: nothing to wait for, fire immediately.
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._on_child(event)
                if self.triggered:
                    break
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._fired.append(event)
        if len(self._fired) == len(self.events):
            self.succeed({ev: ev._value for ev in self._fired})
