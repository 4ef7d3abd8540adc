"""A CPU core: a unit-capacity priority-run-queue with cycle accounting.

Work is expressed as *occupancy intervals*: a component process acquires the
core (at softirq or application priority), holds it for the modeled duration
and releases it.  The core tracks total busy time (for utilization and the
Oprofile-style ``CPU_CLK_UNHALTED`` event) and a per-category breakdown
(softirq, migration stall, copy, compute, ...) used by the experiment
reports.
"""

from __future__ import annotations

import math
import typing as t
from collections import defaultdict

from ..des import Environment, PriorityResource
from ..des.monitor import IntervalAccumulator

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
        self._slot = PriorityResource(env, capacity=1, inline_grant=True)
        self._busy = IntervalAccumulator(env)
        #: Busy seconds per work category.
        self.busy_by_category: dict[str, float] = defaultdict(float)
        #: Exponentially-weighted recent load estimate, maintained lazily;
        #: this is what load-based policies (irqbalance) observe.
        self._load_estimate = 0.0
        self._load_updated = env.now
        #: Busy state over the interval since the last load update.
        self._load_state = False
        #: Load-decay time constant (seconds).  Matches the ~10 Hz cadence
        #: at which irqbalance-style daemons sample /proc/stat.
        self.load_tau = 0.1

    def __repr__(self) -> str:
        return f"<Core {self.index}>"

    # -- execution ----------------------------------------------------------

    def run(
        self, duration: float, category: str, priority: int = APP_PRIORITY
    ) -> t.Generator:
        """Occupy this core for ``duration`` seconds of ``category`` work.

        Usage: ``yield from core.run(12e-6, "softirq", SOFTIRQ_PRIORITY)``.
        The calling process queues behind whatever currently holds the core.
        """
        with self._slot.request(priority=priority) as req:
            yield req
            yield from self.run_locked(duration, category)

    def run_locked(self, duration: float, category: str) -> t.Generator:
        """Account ``duration`` of busy time while *already holding* the core.

        For multi-phase work that must not be preempted between phases:
        acquire once via ``request()`` and call this per phase.
        """
        self._busy.begin()
        self._note_load(busy=True)
        try:
            yield self.env.timeout(duration)
        finally:
            self._busy.end()
            self._note_load(busy=False)
            self.busy_by_category[category] += duration

    def request(self, priority: int = APP_PRIORITY):
        """Raw slot request, for callers composing multi-phase occupancy."""
        return self._slot.request(priority=priority)

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
        self._busy.begin()
        self._note_load(busy=True)

    def end_stall(self, category: str, started: float) -> None:
        """Close the stall opened at ``started``, charging it to
        ``category``."""
        self._busy.end()
        self._note_load(self._busy.active)
        self.busy_by_category[category] += self.env.now - started

    # -- accounting -----------------------------------------------------------

    @property
    def busy_time(self) -> float:
        """Total busy seconds so far (including a currently-running job)."""
        return self._busy.current_total()

    @property
    def is_busy(self) -> bool:
        """Whether the core is executing something right now."""
        return self._busy.active

    @property
    def run_queue_length(self) -> int:
        """Jobs waiting for this core (excluding the one running)."""
        return self._slot.queue_length

    def unhalted_cycles(self) -> float:
        """Oprofile ``CPU_CLK_UNHALTED``: busy seconds x clock."""
        return self.busy_time * self.clock_hz

    def register_metrics(self, registry: t.Any, prefix: str) -> None:
        """Expose this core's accounting in a :class:`MetricsRegistry`."""
        labels = {"core": self.index}
        registry.register_probe(
            f"{prefix}.busy_time", lambda: self.busy_time, labels=labels
        )
        registry.register_probe(
            f"{prefix}.unhalted_cycles", self.unhalted_cycles, labels=labels
        )
        registry.register_probe(
            f"{prefix}.run_queue",
            lambda: float(self.run_queue_length),
            labels=labels,
        )

    # -- load estimate (policy-visible) --------------------------------------

    def _note_load(self, busy: bool) -> None:
        """Fold the elapsed interval (at its previous busy state) into the
        EWMA, then record the new state."""
        now = self.env.now
        dt = now - self._load_updated
        if dt > 0:
            decay = math.exp(-dt / self.load_tau)
            was_busy = 1.0 if self._load_state else 0.0
            self._load_estimate = (
                self._load_estimate * decay + was_busy * (1.0 - decay)
            )
            self._load_updated = now
        self._load_state = busy

    def load(self) -> float:
        """Recent-load estimate in [0, 1] plus queued work pressure.

        This is the quantity balance policies minimize: smoothed busy
        fraction plus the number of queued jobs (each queued job counts as
        a full core of pressure).
        """
        self._note_load(self._busy.active)
        queued = self._slot.queue_length + (1 if self._busy.active else 0)
        return self._load_estimate + queued
