"""Shared-resource primitives: FIFO queues, resources, stores, a barrier.

These model the contended hardware in the simulator: the server and
client uplinks, the disk, the memory bus and the inter-core interconnect
are :class:`FixedServiceFifo`\\ s, and each reports its queue's
:attr:`~FixedServiceFifo.busy_time` as its own; a :class:`Store` carries
each request's arrived strips and memsim's reader-to-combiner pipe, and a
:class:`Barrier` synchronizes the processes of an MPI-IO collective.  No
model code queues on a :class:`Resource`: it is the general FIFO resource
that ``tests/des/test_fixed_service_fifo.py`` checks
:class:`FixedServiceFifo` against.  CPU cores and softirq backlogs are
not here: :class:`repro.hw.core.Core` and
:class:`repro.kernel.softirq.SoftirqDaemon` own their queues.
"""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappush

from ..errors import SimulationError
from .events import NORMAL, Event

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .environment import Environment

__all__ = [
    "FixedServiceFifo",
    "Resource",
    "Request",
    "Store",
    "Barrier",
]


class FixedServiceFifo:
    """A single-server FIFO queue whose jobs have a known service time.

    :meth:`serve` queues one job and returns its *completion* event, which
    fires ``service`` seconds after the job is granted, valued with the
    grant instant.  The completion is put on the calendar at the grant
    decision: at the :meth:`serve` call when the queue is idle, and at the
    previous job's completion when it is busy.  One job therefore costs
    one calendar event, where a :class:`Resource` grant plus a service
    :class:`~repro.des.events.Timeout` costs two.

    Idle and queued grants are treated alike, so completions that fall on
    one instant run in grant-decision order, as the grant events of a
    :class:`Resource` would have ordered them (DESIGN.md §8, "The server
    tier and fixed-service hops")::

        granted_at = yield link_wire.serve(serialization_time)
    """

    __slots__ = ("env", "busy_time", "_busy", "_serving", "_waiting")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Service seconds of the completed jobs (not of one in service).
        self.busy_time = 0.0
        self._busy = False
        self._serving = 0.0
        self._waiting: deque[
            tuple[Event, float, t.Callable[[], None] | None]
        ] = deque()

    def serve(
        self, service: float, on_grant: t.Callable[[], None] | None = None
    ) -> Event:
        """Queue a job of ``service`` seconds; returns its completion.

        ``on_grant`` runs at the grant instant, before the completion is
        scheduled (a core stalled on the job opens its stall there).
        """
        if service < 0:
            raise SimulationError(f"negative service time {service}")
        done = Event(self.env)
        done.callbacks.append(self._advance)
        if self._busy:
            self._waiting.append((done, service, on_grant))
        else:
            self._busy = True
            self._grant(done, service, on_grant)
        return done

    def _grant(
        self,
        done: Event,
        service: float,
        on_grant: t.Callable[[], None] | None,
    ) -> None:
        env = self.env
        if on_grant is not None:
            on_grant()
        now = env._now
        done._value = now
        self._serving = service
        # Inline Environment.schedule: the same (time, priority, id) key a
        # Timeout of ``service`` created now would get.
        heappush(env._queue, (now + service, NORMAL, next(env._eid), done))

    def _advance(self, _done: Event) -> None:
        """First callback of every completion: sum it, hand the server on."""
        self.busy_time += self._serving
        if self._waiting:
            self._grant(*self._waiting.popleft())
        else:
            self._busy = False


class Request(Event):
    """A claim on a :class:`Resource` slot.

    Usable as a context manager::

        with fabric.request() as req:
            yield req                 # wait for the slot
            yield env.timeout(work)   # hold it
        # slot released on exit

    Exiting before the request was granted cancels it.
    """

    __slots__ = ("resource", "cancelled")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.cancelled = False
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: t.Any) -> None:
        if self.triggered and self._ok:
            self.resource.release(self)
        elif not self.triggered:
            self.cancel()

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        if self.triggered:
            raise SimulationError("cannot cancel a granted request; release it")
        self.cancelled = True


class Resource:
    """A FIFO-queued resource with ``capacity`` identical slots.

    Every grant, idle or contended, is a calendar event.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._waiting: deque[Request] = deque()

    # -- public API ---------------------------------------------------------

    def request(self) -> Request:
        """Ask for a slot."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Give back a granted slot and wake the next waiter, if any."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that does not hold a slot")
        self._grant_waiters()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of ungranted (live) requests waiting."""
        return sum(1 for req in self._waiting if not req.cancelled)

    # -- internals ------------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self._waiting.append(request)

    def _grant_waiters(self) -> None:
        waiting = self._waiting
        while len(self.users) < self.capacity and waiting:
            request = waiting.popleft()
            if not request.cancelled:
                self._grant(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.succeed()


class Store:
    """An unbounded (or bounded) FIFO queue of Python objects.

    ``put`` returns an event that fires when the item is accepted (always
    immediately for unbounded stores); ``get`` returns an event that fires
    with the next item.  An item meets a waiting getter directly when no
    putter waits: the getter's event is triggered with it, the same
    calendar operation the general hand-off makes.
    """

    def __init__(
        self, env: "Environment", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[t.Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, t.Any]] = deque()

    def put(self, item: t.Any) -> Event:
        """Offer ``item``; the returned event fires when it is stored."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def put_nowait(self, item: t.Any) -> None:
        """Store ``item`` immediately with no acknowledgement event.

        For producers that never await the put: on an unbounded store, or
        one with free space and no queued putters, the acknowledgement
        event of :meth:`put` fires instantly and runs zero callbacks, so
        skipping it is unobservable and saves one calendar event per item.
        A full store (or one with waiting putters, to keep FIFO put order)
        falls back to the event-based path with the acknowledgement
        discarded.
        """
        if self._putters or len(self.items) >= self.capacity:
            self.put(item)
        elif self._getters:
            # A getter waits, so no item does: hand this one over.
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """The returned event fires with the oldest available item."""
        event = Event(self.env)
        if self._putters:
            self._getters.append(event)
            self._dispatch()
        elif self.items:
            # Items wait, so no getter does: take the oldest.
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed()
                progressed = True
            if self._getters and self.items:
                event = self._getters.popleft()
                event.succeed(self.items.popleft())
                progressed = True


class Barrier:
    """A cyclic rendezvous for a fixed party count.

    Each participant yields the event from :meth:`wait`; all of them fire
    together once the last party arrives, and the barrier resets for the
    next cycle.  Models MPI-style collective synchronization (e.g. the
    implicit sync of MPI-IO collective reads).
    """

    def __init__(self, env: "Environment", parties: int) -> None:
        if parties < 1:
            raise SimulationError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self._waiting: list[Event] = []
        self.cycles = 0

    @property
    def n_waiting(self) -> int:
        """Parties currently blocked at the barrier."""
        return len(self._waiting)

    def wait(self) -> Event:
        """Arrive at the barrier; the event fires when everyone has.

        The event's value is the (0-based) cycle number that completed.
        """
        event = Event(self.env)
        self._waiting.append(event)
        if len(self._waiting) >= self.parties:
            cycle, self.cycles = self.cycles, self.cycles + 1
            waiters, self._waiting = self._waiting, []
            for waiter in waiters:
                waiter.succeed(cycle)
        return event

