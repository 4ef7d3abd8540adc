"""The shared memory bus (DRAM bandwidth).

Used for two things in the client model:

* refetching strips that were evicted from every private cache before the
  application consumed them (the paper's high-bandwidth "swapped out of
  L1/L2" penalty), and
* the Section VI memory simulation, where the "I/O servers" are files on a
  RAM disk and every strip read streams over this bus.

Transfers serialize FIFO at the configured peak bandwidth — a deliberate
simplification of DDR2 channel interleaving that preserves the property the
experiments need: aggregate memory traffic cannot exceed the JESD79-2F peak
(5333 MB/s for the paper's head node).
"""

from __future__ import annotations

import typing as t

from ..des import Environment, FixedServiceFifo
from ..des.monitor import Counter

__all__ = ["MemoryBus"]


class MemoryBus:
    """Unit-capacity FIFO pipe with a bytes/second service rate."""

    def __init__(self, env: Environment, bandwidth: float, latency: float = 0.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self._bus = FixedServiceFifo(env)
        self.bytes_moved = Counter("memory_bytes")
        self.transfers = Counter("memory_transfers")
        self.wait_time = Counter("memory_wait")

    def transfer(self, nbytes: int) -> t.Generator:
        """Stream ``nbytes`` through the bus; the caller blocks."""
        yield from self.transfer_at(nbytes, self.bandwidth)

    def transfer_at(self, nbytes: int, rate: float) -> t.Generator:
        """Stream ``nbytes`` at an accessor-limited ``rate``.

        A single core cannot issue loads fast enough to use the full DDR2
        channel bandwidth, but its transfer still *occupies* the shared bus
        — so the occupancy is charged at ``min(rate, bandwidth)``.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        effective = min(rate, self.bandwidth)
        started = self.env.now
        yield self._bus.serve(
            self.latency + nbytes / effective,
            lambda: self.wait_time.add(self.env.now - started),
        )
        self.bytes_moved.add(nbytes)
        self.transfers.add()

    @property
    def total_busy_time(self) -> float:
        """Seconds the bus has been streaming data."""
        return (
            self.transfers.value * self.latency
            + self.bytes_moved.value / self.bandwidth
        )
