"""Hardware component models for the simulated I/O client and servers.

Each class wraps a DES resource with the accounting the paper's metrics
need (busy cycles, cache accesses/misses, bus occupancy):

* :class:`~repro.hw.core.Core` — one CPU core (priority run queue,
  ``CPU_CLK_UNHALTED`` accounting);
* :class:`~repro.hw.cache.CacheSystem` — per-core private L2 caches with a
  residency directory and line-level access/miss counters;
* :class:`~repro.hw.interconnect.InterconnectBus` — the serialized
  cache-to-cache transfer path (the paper's "only one strip migration can
  happen at any time");
* :class:`~repro.hw.memory.MemoryBus` — shared DRAM bandwidth of the
  memory simulation (:mod:`repro.memsim`);
* :class:`~repro.hw.nic.Nic` — receive-side serialization, coalescing and
  the driver hook where ``SrcParser`` runs;
* :class:`~repro.hw.apic.IoApic` — the interrupt routing fabric a
  scheduling policy programs;
* :class:`~repro.hw.disk.Disk` — seek + streaming storage model.
"""

from .apic import InterruptContext, IoApic
from .cache import CacheAccessModel, CacheSystem, Location
from .core import APP_PRIORITY, SOFTIRQ_PRIORITY, Core
from .disk import Disk
from .interconnect import InterconnectBus
from .memory import MemoryBus
from .nic import Nic

__all__ = [
    "Core",
    "SOFTIRQ_PRIORITY",
    "APP_PRIORITY",
    "CacheSystem",
    "CacheAccessModel",
    "Location",
    "InterconnectBus",
    "MemoryBus",
    "Nic",
    "IoApic",
    "InterruptContext",
    "Disk",
]
