"""The cluster switch: a shared backplane between server and client links.

The paper's Catalyst 4948 is effectively non-blocking at this port count,
but modeling the backplane explicitly lets the ablations create an
oversubscribed fabric and watch the SAIs advantage shrink as the network
becomes the bottleneck (Sec. III's ``TR`` term).
"""

from __future__ import annotations

import typing as t

from ..des import Environment
from .packet import Packet

__all__ = ["Switch"]


class Switch:
    """Store-and-forward fabric with a finite backplane bandwidth."""

    def __init__(
        self,
        env: Environment,
        backplane_bandwidth: float,
        latency: float = 0.0,
        middlebox: t.Callable[[Packet], tuple[Packet, float]] | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        if backplane_bandwidth <= 0:
            raise ValueError(
                f"backplane_bandwidth must be positive, got {backplane_bandwidth}"
            )
        self.env = env
        self.backplane_bandwidth = backplane_bandwidth
        self.latency = latency
        #: In-network hazard hook (``FaultInjector.middlebox``): may
        #: replace the packet (options stripped/corrupted) and return an
        #: extra delivery delay (reordering).  None on a healthy fabric.
        #: The wire (:mod:`repro.net.fastpath`) runs it right after
        #: :meth:`relay`.
        self.middlebox = middlebox
        #: Next-free time of the backplane FIFO (see :meth:`relay`).
        self._fabric_free = 0.0
        #: The fabric's backplane lane (repro.obs); None when tracing is
        #: off.  The wire records the fabric spans on it, because
        #: :meth:`relay` has no packet identity.
        self.obs_track = obs_track
        self.bytes_switched = 0
        self.packets_switched = 0

    def relay(self, nbytes: int) -> float:
        """Carry ``nbytes`` across the backplane analytically.

        The backplane is a FIFO server in closed form: arriving now, the
        packet queues behind the backplane's drain time, serializes, and
        departs at the returned instant.  Counters are charged here, at
        the relay instant rather than at departure; nothing samples them
        mid-run.  The caller applies :attr:`middlebox`.
        """
        start = self._fabric_free
        now = self.env.now
        if start < now:
            start = now
        departure = start + nbytes / self.backplane_bandwidth
        self._fabric_free = departure
        self.bytes_switched += nbytes
        self.packets_switched += 1
        return departure
