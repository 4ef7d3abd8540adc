"""The inter-core interconnect: the serialized strip-migration path.

The paper's quantitative analysis rests on the observation that *"in most
CPU design, only one strip migration can happen at any time"* (Sec. III-A),
i.e. cache-to-cache transfers between private caches serialize on the
coherent interconnect.  This is the mechanism that makes balanced interrupt
scheduling pay ``TM = M x #migrations`` while source-aware scheduling pays
none, and it is why the advantage grows with the number of I/O servers
(more concurrent arrivals -> deeper migration queue).
"""

from __future__ import annotations

import typing as t

from ..config import CostModel
from ..des import Environment, FixedServiceFifo

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Core

__all__ = ["InterconnectBus"]


class InterconnectBus:
    """Unit-capacity FIFO bus carrying cache-to-cache strip transfers."""

    def __init__(self, env: Environment, costs: CostModel) -> None:
        self.env = env
        self.costs = costs
        self._bus = FixedServiceFifo(env)
        #: Number of strip migrations carried.
        self.migrations = 0
        #: Bytes moved cache-to-cache.
        self.bytes_moved = 0
        #: Time transfers spent *waiting* for the bus (queueing) — the
        #: contention signal that grows with server count.
        self.wait_time = 0.0
        #: Small cross-core control messages carried (RPS/RFS softirq
        #: handoffs) — deliberately separate from :attr:`migrations`,
        #: which counts only strip-data transfers.
        self.signals = 0

    def transfer(
        self,
        nbytes: int,
        rate: float,
        core: "Core | None" = None,
        category: str = "migration",
    ) -> t.Generator:
        """Queue for the bus and carry one strip; the caller blocks for
        both phases.  Returns the grant instant.

        The duration is ``c2c_latency + nbytes / rate``: at ``c2c_rate``
        the paper's ``M`` (a dirty cache-to-cache strip), at the shared-L3
        rate a same-socket migration, at ``mem_fetch_rate`` the refetch
        of an evicted strip from DRAM.  Every one of them serializes on
        this bus: it is the same per-socket coherence/fill path, which is
        exactly the paper's "only one strip migration can happen at any
        time".

        ``core`` is the consumer core stalled on the transfer.  While
        *queued* its stall overlaps other transfers (idle, de-scheduled);
        from the grant on, the transfer stalls it (unhalted), so its stall
        opens at the grant and is charged to ``category``.
        """
        env = self.env
        requested = env.now
        duration = self.costs.c2c_latency + nbytes / rate

        def granted() -> None:
            self.wait_time += env.now - requested
            if core is not None:
                core.begin_stall()

        granted_at = yield self._bus.serve(duration, granted)
        self.migrations += 1
        self.bytes_moved += nbytes
        if core is not None:
            core.end_stall(category, granted_at)
        return granted_at

    def signal(self) -> t.Generator:
        """One small inter-processor control message (an RPS/RFS IPI).

        Costs a single coherence round trip (``c2c_latency``) and rides
        the same serialized path as strip transfers — but is counted in
        :attr:`signals`, never in :attr:`migrations`, and bypasses the
        queue-wait instrumentation so ``migration_wait`` keeps measuring
        strip traffic only.
        """
        yield self._bus.serve(self.costs.c2c_latency)
        self.signals += 1

    @property
    def busy_time(self) -> float:
        """Seconds of pure transfer time carried so far (excludes waits)."""
        return self._bus.busy_time

    def register_metrics(self, registry: t.Any, prefix: str) -> None:
        """Expose the bus instruments in a :class:`MetricsRegistry`."""
        registry.register(f"{prefix}.migrations", lambda: self.migrations)
        registry.register(f"{prefix}.signals", lambda: self.signals)
        registry.register(f"{prefix}.bytes_moved", lambda: self.bytes_moved)
        registry.register(f"{prefix}.wait_time", lambda: self.wait_time)
        registry.register(f"{prefix}.busy_time", lambda: self.busy_time)

