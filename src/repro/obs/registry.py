"""A metrics registry: one dotted namespace over a cluster's instruments.

Components keep their counts as plain numeric attributes (``link.bytes_sent``,
``nic.interrupts_raised``) and one ``busy_time`` per shared resource (a
link, disk or bus reports its queue's
:attr:`repro.des.FixedServiceFifo.busy_time`); post-run records are frozen
dataclasses (:class:`~repro.metrics.collectors.ResilienceMetrics`).  The
:class:`MetricsRegistry` maps each dotted name (``server3.disk.busy_time``)
to a zero-argument reader registered at build time — a dict insert, no
per-event cost — and calls it when the name is read.  perfbench reads its
exact counts (``des.events_processed`` and the rest) one name at a time.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import SimulationError

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named access to every instrument in one cluster."""

    def __init__(self) -> None:
        self._readers: dict[str, t.Callable[[], float]] = {}

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._readers))

    def register(self, name: str, read: t.Callable[[], float]) -> None:
        """Expose ``read()`` (called at read time) under ``name``."""
        if name in self._readers:
            raise SimulationError(f"metric {name!r} registered twice")
        self._readers[name] = read

    def ingest_dataclass(self, prefix: str, record: t.Any) -> None:
        """Register every numeric field of a (frozen) dataclass instance.

        Values are captured at ingest time — right for post-run records
        like ``ResilienceMetrics``.
        """
        if not dataclasses.is_dataclass(record):
            raise SimulationError(
                f"ingest_dataclass needs a dataclass, got {type(record).__name__}"
            )
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            frozen = float(value)
            self.register(f"{prefix}.{field.name}", lambda v=frozen: v)

    def read(self, name: str) -> float:
        """Current value of one metric."""
        try:
            read = self._readers[name]
        except KeyError:
            raise SimulationError(f"unknown metric {name!r}") from None
        return read()
