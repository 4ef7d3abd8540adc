"""A CPU core: a unit-capacity priority run queue with cycle accounting.

Work is expressed as *occupancy intervals*: a component process holds the
core (at softirq or application priority) for the modeled duration and
releases it.  The core owns its run queue, its busy interval and its load
estimate: an idle core is granted within the caller's own step, a busy one
hands itself on through a grant event at release.  It tracks total busy
time (for the Oprofile-style ``CPU_CLK_UNHALTED`` event) and a per-category
breakdown (softirq, migration stall, copy, compute, ...) used by the
experiment reports.
"""

from __future__ import annotations

import math
import typing as t
from collections import defaultdict
from heapq import heappop, heappush
from itertools import count

from ..des import Environment, Event
from ..errors import SimulationError

__all__ = ["Core", "SOFTIRQ_PRIORITY", "APP_PRIORITY"]

#: Softirq (interrupt bottom-half) work outranks queued application work,
#: mirroring Linux where softirqs run ahead of the preempted task.
SOFTIRQ_PRIORITY = 0
#: Ordinary application (IOR process) work.
APP_PRIORITY = 10


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
        self.busy_by_category: dict[str, float] = defaultdict(float)
        #: Exponentially-weighted recent load estimate, maintained lazily;
        #: this is what load-based policies (irqbalance) observe.
        self._load_estimate = 0.0
        self._load_updated = env.now
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
                yield from core.run_locked(12e-6, "softirq")
            finally:
                core.release()
        """
        if not self._held:
            self._held = True
            return None
        grant = Event(self.env)
        heappush(self._waiters, (priority, next(self._arrivals), grant))
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
        self._open_busy()
        try:
            yield self.env.timeout(duration)
        finally:
            self._close_busy()
            self.busy_by_category[category] += duration
            self.release()

    def run_locked(self, duration: float, category: str) -> t.Generator:
        """Account ``duration`` of busy time while *already holding* the core.

        For multi-phase work that must not be preempted between phases:
        :meth:`acquire` once and call this per phase.
        """
        self._open_busy()
        try:
            yield self.env.timeout(duration)
        finally:
            self._close_busy()
            self.busy_by_category[category] += duration

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
        self._open_busy()

    def end_stall(self, category: str, started: float) -> None:
        """Close the stall opened at ``started``, charging it to
        ``category``."""
        self._close_busy()
        self.busy_by_category[category] += self.env.now - started

    def _open_busy(self) -> None:
        if self._busy_since is not None:
            raise SimulationError(f"core {self.index} is already busy")
        now = self.env.now
        self._fold_load(now)
        self._busy_since = now

    def _close_busy(self) -> None:
        since = self._busy_since
        if since is None:
            raise SimulationError(f"core {self.index} is not busy")
        now = self.env.now
        self._fold_load(now)
        self._busy_total += now - since
        self._busy_since = None

    # -- accounting -----------------------------------------------------------

    @property
    def busy_time(self) -> float:
        """Total busy seconds so far (including a currently-running job)."""
        since = self._busy_since
        if since is None:
            return self._busy_total
        return self._busy_total + (self.env.now - since)

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

    def register_metrics(self, registry: t.Any, prefix: str) -> None:
        """Expose this core's accounting in a :class:`MetricsRegistry`."""
        registry.register(f"{prefix}.busy_time", lambda: self.busy_time)
        registry.register(f"{prefix}.unhalted_cycles", self.unhalted_cycles)
        registry.register(
            f"{prefix}.run_queue", lambda: float(self.run_queue_length)
        )

    # -- load estimate (policy-visible) --------------------------------------

    def _fold_load(self, now: float) -> None:
        """Fold the interval since the last update into the EWMA, at the
        busy state it had."""
        dt = now - self._load_updated
        if dt > 0:
            decay = math.exp(-dt / self.load_tau)
            was_busy = 0.0 if self._busy_since is None else 1.0
            self._load_estimate = (
                self._load_estimate * decay + was_busy * (1.0 - decay)
            )
            self._load_updated = now

    def load(self) -> float:
        """Recent-load estimate in [0, 1] plus queued work pressure.

        This is the quantity balance policies minimize: smoothed busy
        fraction plus the number of queued jobs (each queued job counts as
        a full core of pressure).
        """
        self._fold_load(self.env.now)
        queued = len(self._waiters) + (0 if self._busy_since is None else 1)
        return self._load_estimate + queued
