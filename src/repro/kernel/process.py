"""The process table: where each application process currently runs.

SAIs "enforces that the application process should be bundled on the core
which requested data before data return" (Sec. IV-B); accordingly processes
are pinned by default.  The table also exposes the lookup the Sec. III
policy (ii) needs (current core of a request's owner) and supports explicit
migration so the ablations can measure how rare-but-possible
migrations during blocking I/O affect the two source-aware policies.
"""

from __future__ import annotations

import dataclasses

from ..errors import SimulationError

__all__ = ["ProcessTable"]


@dataclasses.dataclass
class _Entry:
    pid: int
    core: int
    pinned: bool
    migrations: int = 0


class ProcessTable:
    """pid -> current core, with optional pinning."""

    def __init__(self, n_cores: int) -> None:
        if n_cores < 1:
            raise SimulationError("need at least one core")
        self.n_cores = n_cores
        self._entries: dict[int, _Entry] = {}

    def spawn(self, pid: int, core: int, pinned: bool = True) -> None:
        """Register a process on a core."""
        if pid in self._entries:
            raise SimulationError(f"pid {pid} already exists")
        self._check_core(core)
        self._entries[pid] = _Entry(pid=pid, core=core, pinned=pinned)

    def core_of(self, pid: int) -> int:
        """Current core of ``pid``."""
        return self._entry(pid).core

    def migrate(self, pid: int, core: int) -> None:
        """Move a process to another core (rejected while pinned)."""
        entry = self._entry(pid)
        self._check_core(core)
        if entry.pinned:
            raise SimulationError(f"pid {pid} is pinned to core {entry.core}")
        if core != entry.core:
            entry.core = core
            entry.migrations += 1

    def migrations_of(self, pid: int) -> int:
        """How many times ``pid`` has moved."""
        return self._entry(pid).migrations

    def exit(self, pid: int) -> None:
        """Remove a finished process."""
        if self._entries.pop(pid, None) is None:
            raise SimulationError(f"pid {pid} does not exist")

    def _entry(self, pid: int) -> _Entry:
        try:
            return self._entries[pid]
        except KeyError:
            raise SimulationError(f"pid {pid} does not exist") from None

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise SimulationError(f"core {core} out of range")
