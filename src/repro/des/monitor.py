"""Measurement probes for simulations.

Two kinds of instruments:

* :class:`Counter` — monotonically accumulating event counts / byte totals;
* :class:`IntervalAccumulator` — total busy time from begin/end marks (a
  core's ``CPU_CLK_UNHALTED`` accounting).

Both are cheap (O(1) per update) and deterministic.  The hardware models in
:mod:`repro.hw` expose their statistics through these.
"""

from __future__ import annotations

import typing as t

from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .environment import Environment

__all__ = ["Counter", "IntervalAccumulator"]


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise SimulationError(f"counter {self.name}: negative add {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class IntervalAccumulator:
    """Accumulates total *busy time* from explicit begin/end marks.

    Supports nesting-free overlapping use via a depth counter: the interval
    counts as busy while at least one mark is open.  Used for per-core
    busy-cycle accounting (``CPU_CLK_UNHALTED``).
    """

    __slots__ = ("env", "_depth", "_opened_at", "total")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._depth = 0
        self._opened_at = 0.0
        self.total = 0.0

    @property
    def active(self) -> bool:
        """True while at least one mark is open."""
        return self._depth > 0

    def begin(self) -> None:
        """Open a busy mark."""
        if self._depth == 0:
            self._opened_at = self.env.now
        self._depth += 1

    def end(self) -> None:
        """Close a busy mark."""
        if self._depth <= 0:
            raise SimulationError("IntervalAccumulator.end() without begin()")
        self._depth -= 1
        if self._depth == 0:
            self.total += self.env.now - self._opened_at

    def current_total(self) -> float:
        """Busy time accumulated so far, including a still-open interval."""
        if self._depth > 0:
            return self.total + (self.env.now - self._opened_at)
        return self.total
