"""DRAM bandwidth: the shared memory bus of the Section VI memory simulation.

In :mod:`repro.memsim` the "I/O servers" are files on a RAM disk, and
every strip read and every combine write-back streams over this bus.  The
cluster client has no memory bus: it refetches evicted strips over the
interconnect at ``CostModel.mem_fetch_rate``
(:class:`~repro.hw.interconnect.InterconnectBus`).

Transfers serialize FIFO at the configured peak bandwidth — a deliberate
simplification of DDR2 channel interleaving that preserves the property the
experiment needs: aggregate memory traffic cannot exceed the JESD79-2F peak
(5333 MB/s for the paper's head node).
"""

from __future__ import annotations

import typing as t

from ..des import Environment, FixedServiceFifo

__all__ = ["MemoryBus"]


class MemoryBus:
    """Unit-capacity FIFO pipe with a bytes/second service rate."""

    def __init__(self, env: Environment, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = bandwidth
        self._bus = FixedServiceFifo(env)
        self.bytes_moved = 0

    def transfer(self, nbytes: int) -> t.Generator:
        """Stream ``nbytes`` through the bus; the caller blocks."""
        yield self._bus.serve(nbytes / self.bandwidth)
        self.bytes_moved += nbytes

    @property
    def busy_time(self) -> float:
        """Seconds the bus has been streaming data."""
        return self._bus.busy_time
