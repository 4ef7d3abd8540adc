"""Per-core private caches with a strip-granularity residency directory.

The unit of tracking is a *strip* (the PVFS striping unit, 64 KiB by
default): interrupt handling installs the strip's lines into the handling
core's private L2; consumption looks the strip up and classifies the access
as

* ``LOCAL``  — resident in the consuming core's own cache (the source-aware
  happy path),
* ``REMOTE`` — resident in another core's cache, requiring a cache-to-cache
  transfer over the serialized interconnect (the paper's "data migration"),
* ``MEMORY`` — evicted to DRAM before consumption (the paper's "swapped out
  of the L1/L2 cache" high-bandwidth effect),
* ``ABSENT`` — never installed (cold read from DRAM).

Line-level access and miss counters implement the paper's L2 miss-rate
metric (# misses / # accesses, Sec. V-D).  The *fractions* of lines that
hit/miss per event are the :class:`CacheAccessModel` calibration constants.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import OrderedDict

from ..config import CACHE_LINE
from ..errors import ConfigError, SimulationError

__all__ = ["Location", "CacheAccessModel", "CacheSystem", "PrivateCache"]


class Location(enum.Enum):
    """Where a strip was found at consumption time."""

    LOCAL = "local"
    REMOTE = "remote"
    MEMORY = "memory"
    ABSENT = "absent"


@dataclasses.dataclass(frozen=True)
class CacheAccessModel:
    """Per-line hit/miss fractions for each access type.

    These express how many of a strip's cache lines miss during each phase;
    they are calibration constants (DESIGN.md §5) chosen so the emergent L2
    miss rates land in the paper's reported bands.
    """

    #: Fraction of lines missing while the softirq touches freshly-DMA'd
    #: packet data (headers + checksum + skb copy).  Paid under *every*
    #: policy — DMA lands in DRAM, never in any core's cache.
    dma_touch_miss: float = 0.6
    #: Fraction of lines missing when the consumer pulls a strip out of a
    #: *remote* cache (adjacent-line prefetching hides a little of it).
    remote_miss: float = 0.85
    #: Fraction of lines missing when the strip was evicted to memory.
    memory_miss: float = 1.0
    #: Fraction of lines missing on a local, cache-resident consume.
    local_miss: float = 0.02
    #: How many times the compute (encrypt) phase touches each line of the
    #: request buffer.  These are mostly hits and provide the access-count
    #: denominator that keeps absolute miss rates in the paper's 5–25% band.
    compute_accesses_per_line: float = 5.0
    #: Fraction of compute accesses that miss (streaming out-of-cache parts
    #: of large transfers).
    compute_miss: float = 0.03

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ConfigError(f"{field.name} must be >= 0, got {value}")
        for name in (
            "dma_touch_miss",
            "remote_miss",
            "memory_miss",
            "local_miss",
            "compute_miss",
        ):
            if getattr(self, name) > 1.0:
                raise ConfigError(f"{name} is a fraction, got {getattr(self, name)}")


class PrivateCache:
    """One core's private L2: an LRU set of resident strips."""

    def __init__(self, core_index: int, capacity_strips: int) -> None:
        if capacity_strips < 1:
            raise ConfigError(
                f"cache must hold at least one strip, got {capacity_strips}"
            )
        self.core_index = core_index
        self.capacity_strips = capacity_strips
        self._resident: OrderedDict[int, None] = OrderedDict()

    def __contains__(self, strip_id: int) -> bool:
        return strip_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def touch(self, strip_id: int) -> None:
        """Refresh LRU position of a resident strip."""
        self._resident.move_to_end(strip_id)

    def insert(self, strip_id: int) -> list[int]:
        """Install a strip; returns the strip ids evicted to make room."""
        evicted: list[int] = []
        if strip_id in self._resident:
            self._resident.move_to_end(strip_id)
            return evicted
        while len(self._resident) >= self.capacity_strips:
            victim, _ = self._resident.popitem(last=False)
            evicted.append(victim)
        self._resident[strip_id] = None
        return evicted

    def remove(self, strip_id: int) -> None:
        """Drop a strip (it moved to another cache or was invalidated)."""
        self._resident.pop(strip_id, None)


class CacheSystem:
    """Directory of strip residency across all private caches.

    Also owns the line-granularity access/miss counters that feed the L2
    miss-rate metric.
    """

    #: Directory value meaning "in DRAM only".
    IN_MEMORY = -1

    def __init__(
        self,
        n_cores: int,
        l2_bytes: int,
        strip_size: int,
        model: CacheAccessModel | None = None,
    ) -> None:
        if strip_size <= 0:
            raise ConfigError("strip_size must be positive")
        capacity = max(1, l2_bytes // strip_size)
        self.n_cores = n_cores
        self.strip_size = strip_size
        self.lines_per_strip = max(1, strip_size // CACHE_LINE)
        self.model = model = model or CacheAccessModel()
        #: Per-line miss fraction of a consume, by where the strip was.
        self._consume_miss = {
            Location.LOCAL: model.local_miss,
            Location.REMOTE: model.remote_miss,
            Location.MEMORY: model.memory_miss,
            Location.ABSENT: model.memory_miss,
        }
        self.caches = [PrivateCache(i, capacity) for i in range(n_cores)]
        self._directory: dict[int, int] = {}
        # Metric counters (line granularity).
        self.accesses = 0
        self.misses = 0.0
        self.consume_by_location = {loc: 0 for loc in Location}
        self.evictions = 0

    # -- residency ------------------------------------------------------------

    def owner(self, strip_id: int) -> int | None:
        """Core index holding the strip, ``IN_MEMORY``, or None if unknown."""
        return self._directory.get(strip_id)

    def install(self, core_index: int, strip_id: int) -> None:
        """Softirq on ``core_index`` wrote the strip into its cache.

        Accounts the DMA-touch accesses and any capacity evictions.
        """
        self._check_core(core_index)
        lines = self.lines_per_strip
        self.accesses += lines
        self.misses += lines * self.model.dma_touch_miss
        previous = self._directory.get(strip_id)
        if previous is not None and previous >= 0 and previous != core_index:
            self.caches[previous].remove(strip_id)
        for victim in self.caches[core_index].insert(strip_id):
            self._directory[victim] = self.IN_MEMORY
            self.evictions += 1
        self._directory[strip_id] = core_index

    def consume(self, core_index: int, strip_id: int) -> Location:
        """The application on ``core_index`` reads the strip (merge copy).

        Returns where the strip was found; updates counters and moves the
        strip into the consumer's cache (the data now lives there).
        """
        self._check_core(core_index)
        where = self._directory.get(strip_id)
        if where is None:
            location = Location.ABSENT
        elif where == self.IN_MEMORY:
            location = Location.MEMORY
        elif where == core_index:
            location = Location.LOCAL
        else:
            location = Location.REMOTE

        lines = self.lines_per_strip
        self.accesses += lines
        self.misses += lines * self._consume_miss[location]
        self.consume_by_location[location] += 1

        if location is Location.LOCAL:
            self.caches[core_index].touch(strip_id)
        else:
            if location is Location.REMOTE:
                assert where is not None and where >= 0
                self.caches[where].remove(strip_id)
            for victim in self.caches[core_index].insert(strip_id):
                self._directory[victim] = self.IN_MEMORY
                self.evictions += 1
            self._directory[strip_id] = core_index
        return location

    def compute_pass(self, core_index: int, nbytes: int) -> None:
        """Account the encrypt phase touching ``nbytes`` of resident data."""
        self._check_core(core_index)
        lines = max(1, nbytes // CACHE_LINE)
        accesses = lines * self.model.compute_accesses_per_line
        self.accesses += accesses
        self.misses += accesses * self.model.compute_miss

    # -- metrics ---------------------------------------------------------------

    def miss_rate(self) -> float:
        """L2 miss rate = misses / accesses (the Fig. 6/7 metric)."""
        if self.accesses <= 0:
            return 0.0
        return self.misses / self.accesses

    def _check_core(self, core_index: int) -> None:
        if not 0 <= core_index < self.n_cores:
            raise SimulationError(f"core index {core_index} out of range")
