"""A storage device: positioning cost plus streaming transfer.

Used by the PVFS I/O servers (7.2K-RPM SATA in the paper's compute nodes).
Requests serialize FIFO on the spindle.  Page-cache behaviour lives in the
server model (:mod:`repro.pfs.server`), not here — the disk itself is purely
mechanical.
"""

from __future__ import annotations

import typing as t

from ..des import Environment, FixedServiceFifo
from ..rng import Pcg64Stream

__all__ = ["Disk"]


class Disk:
    """FIFO spindle with seek + streaming-rate service."""

    #: Half-width of the multiplicative jitter around the nominal seek.
    SEEK_JITTER = 0.25

    def __init__(
        self,
        env: Environment,
        rate: float,
        seek: float,
        rng: Pcg64Stream | None = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if seek < 0:
            raise ValueError(f"seek must be non-negative, got {seek}")
        self.env = env
        self.rate = rate
        self.seek = seek
        self._rng = rng
        self._spindle = FixedServiceFifo(env)
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests = 0

    @property
    def busy_time(self) -> float:
        """Seconds of positioning and streaming completed so far."""
        return self._spindle.busy_time

    def _seek_time(self) -> float:
        if self.seek == 0.0:
            return 0.0
        if self._rng is None:
            return self.seek
        # Mild multiplicative jitter around the nominal positioning cost;
        # keeps repeated A/B runs paired (same rng stream -> same draws).
        factor = 1.0 + self.SEEK_JITTER * (2.0 * self._rng.random() - 1.0)
        return self.seek * factor

    def _service_time(self, nbytes: int) -> float:
        """Positioning plus streaming time of one request.

        Drawn when the request is queued.  The spindle is FIFO and owns
        its RNG stream, so the draws come in grant order all the same.
        """
        return self._seek_time() + nbytes / self.rate

    def read(self, nbytes: int) -> t.Generator:
        """Read ``nbytes``; blocks the calling process until data is off
        the platter."""
        yield self._spindle.serve(self._service_time(nbytes))
        self.bytes_read += nbytes
        self.requests += 1

    def write(self, nbytes: int) -> t.Generator:
        """Write ``nbytes``; mechanically identical to a read at this level
        (positioning + streaming), tracked separately."""
        yield self._spindle.serve(self._service_time(nbytes))
        self.bytes_written += nbytes
        self.requests += 1
