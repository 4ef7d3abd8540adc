"""A CPU core: a unit-capacity priority run queue with cycle accounting.

Work is expressed as *occupancy intervals*: a component process holds the
core (at softirq or application priority) for the modeled duration and
releases it.  The core owns its run queue, its busy interval and its load
estimate: an idle core is granted within the caller's own step, a busy one
hands itself on through a grant event at release.  It tracks total busy
time (for the Oprofile-style ``CPU_CLK_UNHALTED`` event) and a per-category
breakdown (softirq, migration stall, copy, compute, ...) used by the
experiment reports.

A visit costs only what the model reads.  A busy mark records its edges,
and the load estimate folds them when a policy reads it.  A locked phase is
one ``Timeout`` whose first callback closes the mark.  A chunked phase that
nobody contends is one calendar entry for all its chunks
(:meth:`Core.run_chunks`).
"""

from __future__ import annotations

import math
import typing as t
from collections import defaultdict
from heapq import heappop, heappush
from itertools import count

from ..des import Environment, Event, Timeout
from ..errors import SimulationError

__all__ = ["Core", "SOFTIRQ_PRIORITY", "APP_PRIORITY"]

#: Softirq (interrupt bottom-half) work outranks queued application work,
#: mirroring Linux where softirqs run ahead of the preempted task.
SOFTIRQ_PRIORITY = 0
#: Ordinary application (IOR process) work.
APP_PRIORITY = 10

#: Busy-mark edges a core keeps before it folds them into its load
#: estimate, so the list stays small whether or not a policy reads load.
#: A close checks the bound; the open before it does not need to.
_EDGE_BOUND = 16


class _Train:
    """A chunked phase held as one calendar entry (:meth:`Core.run_chunks`).

    ``left`` is the work not yet charged, counted from the core's open
    mark; the train ends where ``stop`` units are left.
    """

    __slots__ = ("done", "left", "stop", "chunk", "rate", "category")

    def __init__(
        self, amount: int, chunk: int, rate: float, category: str
    ) -> None:
        self.done: Event | None = None
        self.left = amount
        self.stop = 0
        self.chunk = chunk
        self.rate = rate
        self.category = category


class Core:
    """One processor core.

    Parameters
    ----------
    env:
        Simulation environment.
    index:
        Core id within the client (0-based; this is what ``aff_core_id``
        encodes on the wire).
    clock_hz:
        Core clock, used only to convert busy seconds into "unhalted
        cycles" for the Fig. 10/11 metric.
    """

    def __init__(self, env: Environment, index: int, clock_hz: float) -> None:
        self.env = env
        self.index = index
        self.clock_hz = clock_hz
        #: Whether a process holds the core (running, or stalled on a bus).
        self._held = False
        #: Waiting holders as a heap of ``(priority, arrival, grant)``:
        #: lower priority first, FIFO within a priority.
        self._waiters: list[tuple[int, int, Event]] = []
        self._arrivals = count()
        #: Busy seconds of closed marks, and the start of the open one
        #: (None while idle).  At most one mark is open at a time.
        self._busy_total = 0.0
        self._busy_since: float | None = None
        #: Busy seconds per work category.
        self._by_category: dict[str, float] = defaultdict(float)
        #: The category of the open :meth:`run_locked` mark, and the
        #: callback that closes it.
        self._locked_category = ""
        self._close_locked_mark = self._close_locked
        #: The running :meth:`run_chunks` train, or None.
        self._train: _Train | None = None
        #: Exponentially-weighted recent load estimate, folded up to
        #: ``_load_updated``; this is what load-based policies (irqbalance)
        #: observe.
        self._load_estimate = 0.0
        self._load_updated = env.now
        #: Instants where the busy state toggled since the last fold, in
        #: order, and the busy state (0.0 or 1.0) before the first of them.
        self._edges: list[float] = []
        self._edges_busy = 0.0
        #: Load-decay time constant (seconds).  Matches the ~10 Hz cadence
        #: at which irqbalance-style daemons sample /proc/stat.
        self.load_tau = 0.1

    def __repr__(self) -> str:
        return f"<Core {self.index}>"

    # -- run queue ------------------------------------------------------------

    def acquire(self, priority: int = APP_PRIORITY) -> Event | None:
        """Claim the core for a multi-phase holder.

        Returns None when the core is idle: the caller holds it from now,
        and no event is made.  Otherwise returns the grant event to
        ``yield``; it fires when :meth:`release` hands the core on.  The
        holder calls :meth:`release` when done::

            grant = core.acquire(SOFTIRQ_PRIORITY)
            if grant is not None:
                yield grant
            try:
                yield core.run_locked(12e-6, "softirq")
            finally:
                core.release()
        """
        if not self._held:
            self._held = True
            return None
        grant = Event(self.env)
        heappush(self._waiters, (priority, next(self._arrivals), grant))
        if self._train is not None:
            self._split(self._train)
        return grant

    def release(self) -> None:
        """Hand the core to the most urgent waiter, or leave it idle."""
        if not self._held:
            raise SimulationError(f"core {self.index} released while idle")
        if self._waiters:
            heappop(self._waiters)[2].succeed()
        else:
            self._held = False

    # -- execution ----------------------------------------------------------

    def run(
        self, duration: float, category: str, priority: int = APP_PRIORITY
    ) -> t.Generator:
        """Occupy this core for ``duration`` seconds of ``category`` work.

        Usage: ``yield from core.run(12e-6, "softirq", SOFTIRQ_PRIORITY)``.
        The calling process queues behind whatever currently holds the core.
        """
        grant = self.acquire(priority)
        if grant is not None:
            yield grant
        try:
            yield self.run_locked(duration, category)
        finally:
            self.release()

    def run_locked(self, duration: float, category: str) -> Timeout:
        """Account ``duration`` of busy time while *already holding* the core.

        For multi-phase work that must not be preempted between phases:
        :meth:`acquire` once and ``yield`` this per phase.  Returns the
        phase's ``Timeout``; its first callback closes the busy mark, so
        the holder resumes with the phase accounted.
        """
        # The mark's open and close are _open and _close, inlined: this
        # is the visit of every softirq, merge copy and memsim phase.
        if self._busy_since is not None:
            raise SimulationError(f"core {self.index} is already busy")
        env = self.env
        now = env._now
        self._busy_since = now
        self._edges.append(now)
        self._locked_category = category
        timeout = Timeout(env, duration)
        timeout.callbacks.append(self._close_locked_mark)
        return timeout

    def _close_locked(self, timeout: Timeout) -> None:
        now = timeout.env._now
        self._busy_total += now - self._busy_since
        self._busy_since = None
        edges = self._edges
        edges.append(now)
        if len(edges) >= _EDGE_BOUND:
            self._fold_edges()
        self._by_category[self._locked_category] += timeout.delay

    def run_chunks(
        self, amount: int, chunk: int, rate: float, category: str
    ) -> Event:
        """Run ``amount`` units of ``category`` work at ``rate`` units per
        second, in chunks of at most ``chunk`` units, while holding the core.

        It accounts exactly what a loop of :meth:`run` calls would, one
        call per chunk, each releasing the core at its end.  Such a loop
        keeps the core across a chunk end where nobody waits, so this
        holds it across those ends with one calendar entry.  The entry
        lies on the loop's own chain of chunk ends, ``b_k = b_(k-1) + d_k``
        with ``d_k = piece / rate``.  It is the first end at or after an
        :meth:`acquire` of this core (the first end when waiters are
        already queued), where the loop would hand the core on, or else
        the last.  Busy time, categories and load edges are charged chunk
        end by chunk end, when the train ends or when one of them is read
        during it.

        Returns the event to ``yield``; its value is the work left when it
        fires.  Release the core after it, as after :meth:`run_locked`.
        """
        env = self.env
        self._open(env._now)
        train = self._train = _Train(amount, chunk, rate, category)
        end, train.stop = self._chunk_end(
            train, env._now if self._waiters else math.inf
        )
        done = train.done = Event(env)
        done._value = train.stop
        done.callbacks.append(self._end_train)
        env.schedule_at(done, end)
        return done

    def _chunk_end(self, train: _Train, until: float) -> tuple[float, int]:
        """The train's first chunk end at or after ``until``, or its last,
        and the work left there."""
        end = self._busy_since
        left = train.left
        chunk = train.chunk
        rate = train.rate
        stop = train.stop
        while True:
            piece = chunk if left > chunk else left
            end = end + piece / rate
            left -= piece
            if left == stop or end >= until:
                return end, left

    def _split(self, train: _Train) -> None:
        """End the train at its first chunk end at or after now, where the
        loop of :meth:`run` calls would hand the core to the new waiter.
        A train that already ends there keeps its entry; otherwise the old
        entry stays on the calendar with no callbacks."""
        env = self.env
        end, left = self._chunk_end(train, env._now)
        if left == train.stop:
            return
        train.stop = left
        old = train.done
        done = train.done = Event(env)
        done._value = left
        done.callbacks, old.callbacks = old.callbacks, []
        env.schedule_at(done, end)

    def _charge_chunks(self, train: _Train, until: float) -> None:
        """Charge the chunks of ``train`` that end before ``until``, all but
        its last, as the loop's close and reopen at each chunk end would:
        busy seconds, the category and the two load edges."""
        since = self._busy_since
        left = train.left
        chunk = train.chunk
        rate = train.rate
        stop = train.stop
        total = self._busy_total
        # The category's key appears with its first charged chunk, as in
        # the loop.
        charged = None
        edges = self._edges
        while True:
            piece = chunk if left > chunk else left
            if left - piece == stop:
                break
            duration = piece / rate
            end = since + duration
            if end >= until:
                break
            total += end - since
            if charged is None:
                charged = self._by_category[train.category]
            charged += duration
            edges.append(end)
            edges.append(end)
            since = end
            left -= piece
        if charged is None:
            return
        self._busy_total = total
        self._by_category[train.category] = charged
        self._busy_since = since
        train.left = left
        if len(edges) >= _EDGE_BOUND:
            self._fold_edges()

    def _end_train(self, done: Event) -> None:
        train = self._train
        self._train = None
        self._charge_chunks(train, math.inf)
        left = train.left
        piece = train.chunk if left > train.chunk else left
        self._close(done.env._now)
        self._by_category[train.category] += piece / train.rate

    def run_while(self, inner: t.Generator, category: str) -> t.Generator:
        """Stay busy for however long ``inner`` takes (core already held).

        Models a core *stalled* on an external resource (a cache-to-cache
        transfer, a DRAM refetch): the pipeline spins on the loads, so the
        time counts as unhalted/busy even though the work is elsewhere.
        """
        started = self.env.now
        self.begin_stall()
        try:
            yield from inner
        finally:
            self.end_stall(category, started)

    def begin_stall(self) -> None:
        """Open a stall mark now: the core counts as busy until
        :meth:`end_stall`.  For a stall that opens outside the stalled
        process, e.g. at an interconnect grant decided by another
        transfer's completion."""
        self._open(self.env._now)

    def end_stall(self, category: str, started: float) -> None:
        """Close the stall opened at ``started``, charging it to
        ``category``."""
        now = self.env._now
        self._close(now)
        self._by_category[category] += now - started

    def _open(self, now: float) -> None:
        if self._busy_since is not None:
            raise SimulationError(f"core {self.index} is already busy")
        self._busy_since = now
        self._edges.append(now)

    def _close(self, now: float) -> None:
        since = self._busy_since
        if since is None:
            raise SimulationError(f"core {self.index} is not busy")
        self._busy_total += now - since
        self._busy_since = None
        edges = self._edges
        edges.append(now)
        if len(edges) >= _EDGE_BOUND:
            self._fold_edges()

    # -- accounting -----------------------------------------------------------

    @property
    def busy_time(self) -> float:
        """Total busy seconds so far (including a currently-running job)."""
        if self._train is not None:
            self._charge_chunks(self._train, self.env._now)
        since = self._busy_since
        if since is None:
            return self._busy_total
        return self._busy_total + (self.env.now - since)

    @property
    def busy_by_category(self) -> dict[str, float]:
        """Busy seconds per work category, of closed marks."""
        if self._train is not None:
            self._charge_chunks(self._train, self.env._now)
        return self._by_category

    @property
    def is_busy(self) -> bool:
        """Whether the core is executing something right now."""
        return self._busy_since is not None

    @property
    def run_queue_length(self) -> int:
        """Jobs waiting for this core (excluding the one holding it)."""
        return len(self._waiters)

    def unhalted_cycles(self) -> float:
        """Oprofile ``CPU_CLK_UNHALTED``: busy seconds x clock."""
        return self.busy_time * self.clock_hz

    # -- load estimate (policy-visible) --------------------------------------

    def _fold_edges(self) -> None:
        """Fold the recorded edges into the EWMA, in order, each interval
        at the busy state it had: the expressions a fold at every edge
        would evaluate, so the estimate is the same to the bit."""
        estimate = self._load_estimate
        updated = self._load_updated
        busy = self._edges_busy
        tau = self.load_tau
        for edge in self._edges:
            dt = edge - updated
            if dt > 0:
                decay = math.exp(-dt / tau)
                estimate = estimate * decay + busy * (1.0 - decay)
                updated = edge
            busy = 1.0 - busy
        self._edges.clear()
        self._load_estimate = estimate
        self._load_updated = updated
        self._edges_busy = busy

    def load(self) -> float:
        """Recent-load estimate in [0, 1] plus queued work pressure.

        This is the quantity balance policies minimize: smoothed busy
        fraction plus the number of queued jobs (each queued job counts as
        a full core of pressure).
        """
        now = self.env._now
        if self._train is not None:
            self._charge_chunks(self._train, now)
        # Two edges at now fold up to now and leave the busy state as is.
        self._edges.append(now)
        self._edges.append(now)
        self._fold_edges()
        queued = len(self._waiters) + (0 if self._busy_since is None else 1)
        return self._load_estimate + queued
