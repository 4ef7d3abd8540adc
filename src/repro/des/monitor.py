"""Measurement probes for simulations.

:class:`Counter` accumulates event counts and byte totals, O(1) per update
and deterministic.  The hardware models in :mod:`repro.hw` expose their
statistics through it; a core keeps its busy interval itself
(:class:`repro.hw.core.Core`).
"""

from __future__ import annotations

from ..errors import SimulationError

__all__ = ["Counter"]


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
