"""Reader/combiner application pairs for the memory simulation.

One :class:`AppPair` moves ``per_app_bytes`` through a bounded pipe:

* the **reader** thread pulls strips off the RAM disk (memory-bus traffic
  plus reader-core time) and pushes them into the pipe;
* the **combiner** thread pops strips and merges them into the request
  buffer — cache-hot when colocated (Si-SAIs) or cross-address-space when
  split (Si-Irqbalance), with write-back traffic either way.

Colocated pairs share a single core (two threads interleaving); split
pairs occupy two cores but pay IPC traffic and cold combines.
"""

from __future__ import annotations

import typing as t

from ..des import Environment, Store
from ..hw.core import APP_PRIORITY, Core
from ..hw.memory import MemoryBus
from .config import MemsimConfig

__all__ = ["AppPair"]


class AppPair:
    """One application: a reader and a combiner moving strips."""

    def __init__(
        self,
        env: Environment,
        config: MemsimConfig,
        reader_core: Core,
        combiner_core: Core,
        membus: MemoryBus,
        cache_hot_fraction: float,
        line_counts: list[float],
        shared_address_space: bool = True,
    ) -> None:
        self.env = env
        self.config = config
        self.reader_core = reader_core
        self.combiner_core = combiner_core
        self.membus = membus
        self.cache_hot_fraction = cache_hot_fraction
        #: ``[accesses, misses]`` in cache lines: one list shared by every
        #: pair of a run, which all add into it in event order.
        self.line_counts = line_counts
        #: Si-SAIs pairs are *threads*: same address space, so a produced
        #: strip is combined straight out of the shared cache hierarchy.
        #: Si-Irqbalance pairs are *processes*: each strip crosses address
        #: spaces through memory (extra IPC traffic, cold combine).
        self.shared_address_space = shared_address_space
        self._pipe = Store(env, capacity=config.pipe_depth)
        self.bytes_combined = 0

    # -- threads ---------------------------------------------------------------

    def run(self) -> t.Generator:
        """Drive both threads to completion; returns bytes combined."""
        reader = self.env.process(self._reader())
        combiner = self.env.process(self._combiner())
        yield reader
        yield combiner
        return self.bytes_combined

    def _strip_count(self) -> int:
        return self.config.per_app_bytes // self.config.strip_size

    def _reader(self) -> t.Generator:
        cfg = self.config
        strip = cfg.strip_size
        core = self.reader_core
        for index in range(self._strip_count()):
            grant = core.acquire(APP_PRIORITY)
            if grant is not None:
                yield grant
            try:
                # RAM-disk read: bus transfer (the core stalls on it), then
                # the reader-side strip handling.
                yield from core.run_while(
                    self.membus.transfer(int(strip * cfg.read_traffic)),
                    "ramdisk_read",
                )
                yield core.run_locked(strip / cfg.read_rate, "read")
            finally:
                core.release()
            self._account(1.0, cfg.read_miss)
            yield self._pipe.put(index)

    def _combiner(self) -> t.Generator:
        cfg = self.config
        strip = cfg.strip_size
        shared = self.shared_address_space
        core = self.combiner_core
        for _ in range(self._strip_count()):
            yield self._pipe.get()
            hot = shared and self._is_hot()
            grant = core.acquire(APP_PRIORITY)
            if grant is not None:
                yield grant
            try:
                extra_traffic = 0.0 if shared else cfg.ipc_traffic
                if not hot and shared:
                    # Evicted before combine: re-read through the bus.
                    extra_traffic += 1.0
                traffic = int(strip * (cfg.writeback_traffic + extra_traffic))
                if traffic > 0:
                    yield from core.run_while(
                        self.membus.transfer(traffic), "combine_traffic"
                    )
                rate = cfg.combine_hot_rate if hot else cfg.combine_cold_rate
                yield core.run_locked(strip / rate, "combine")
            finally:
                core.release()
            self._account(
                1.0, cfg.combine_hot_miss if hot else cfg.combine_cold_miss
            )
            self.bytes_combined += strip

    # -- helpers ---------------------------------------------------------------

    _hot_sequence = 0

    def _is_hot(self) -> bool:
        """Deterministic Bernoulli(cache_hot_fraction) via a rotating phase."""
        self._hot_sequence += 1
        phase = (self._hot_sequence * 0.6180339887498949) % 1.0
        return phase < self.cache_hot_fraction

    def _account(self, accesses_per_line: float, miss_fraction: float) -> None:
        lines = self.config.strip_size // 64
        counts = self.line_counts
        counts[0] += lines * accesses_per_line
        counts[1] += lines * accesses_per_line * miss_fraction
