"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each event the generator
``yield``\\ s suspends it until the event fires, at which point the event's
value is sent back in (or its exception thrown in).  A process is itself an
:class:`~repro.des.events.Event` that fires when the generator returns, with
the generator's return value.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

from ..errors import SimulationError
from .events import NORMAL, PENDING, URGENT, Event

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .environment import Environment

__all__ = ["Process"]


class Process(Event):
    """A running generator on the simulation calendar.

    Fires (as an event) when the generator finishes; its value is the
    generator's return value.  If the generator raises, the process fails
    with that exception, which propagates to waiters or stops the run.
    """

    __slots__ = ("_generator", "_quiet")

    def __init__(
        self,
        env: "Environment",
        generator: t.Generator,
        *,
        quiet: bool = False,
        start_at: float | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: Internal fire-and-forget process: a successful finish with no
        #: subscribed callbacks completes in place, skipping the calendar.
        self._quiet = quiet
        # Kick the generator off via an init event.  An immediate start
        # is URGENT (spawned work begins ahead of other same-time NORMAL
        # events, as it always has); a start at a later instant is NORMAL,
        # so it is ordered exactly like the timeout it replaces.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        if start_at is None or start_at == env._now:
            env.schedule(init, priority=URGENT)
        elif start_at > env._now:
            heappush(env._queue, (start_at, NORMAL, next(env._eid), init))
        else:
            raise SimulationError(
                f"cannot start a process at {start_at}, before now={env._now}"
            )

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    # The waiter absorbs the failure.
                    event.defuse()
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                if self._quiet and not self.callbacks:
                    # Nobody subscribed to a fire-and-forget process: its
                    # completion event would run zero callbacks, so record
                    # the completion in place.  (`processed` flips a
                    # micro-tick early at the same timestamp — observable
                    # only by polling, which nothing internal does.)
                    self.callbacks = None
                else:
                    env.schedule(self)
                break
            except BaseException as exc:  # noqa: BLE001 - process death path
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_target!r}"
                )
                self._ok = False
                self._value = exc
                env.schedule(self)
                break
            if next_target.env is not env:
                exc = SimulationError("yielded an event from a foreign environment")
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if next_target.callbacks is not None:
                # Still pending or triggered-but-unprocessed: subscribe.
                next_target.callbacks.append(self._resume)
                break
            # Already processed: consume its value immediately.
            event = next_target

