"""Round-robin striping layout (PVFS ``simple_stripe``).

A file is cut into fixed-size strips; strip ``k`` lives on server
``k mod n_servers``.  A read of ``(offset, size)`` therefore touches
``ceil`` over the strip boundaries it spans — each touched strip becomes
one :class:`StripExtent`, i.e. one server-side request and (eventually) one
interrupt-raising packet train at the client.
"""

from __future__ import annotations

import dataclasses

from ..errors import LayoutError

__all__ = ["StripExtent", "StripeLayout"]


@dataclasses.dataclass(frozen=True)
class StripExtent:
    """The intersection of a byte range with one strip."""

    #: Global strip index within the file.
    strip_id: int
    #: Server holding the strip.
    server: int
    #: File offset where this extent begins.
    offset: int
    #: Extent length in bytes (<= strip size).
    size: int


class StripeLayout:
    """Maps byte ranges to per-server strip extents."""

    def __init__(self, strip_size: int, n_servers: int) -> None:
        if strip_size <= 0:
            raise LayoutError(f"strip_size must be positive, got {strip_size}")
        if n_servers <= 0:
            raise LayoutError(f"n_servers must be positive, got {n_servers}")
        self.strip_size = strip_size
        self.n_servers = n_servers

    def server_for(self, strip_id: int) -> int:
        """The server storing strip ``strip_id``."""
        if strip_id < 0:
            raise LayoutError(f"strip_id must be non-negative, got {strip_id}")
        return strip_id % self.n_servers

    def extents(self, offset: int, size: int) -> list[StripExtent]:
        """Decompose ``(offset, size)`` into per-strip extents, in file order.

        >>> layout = StripeLayout(strip_size=100, n_servers=4)
        >>> [(e.strip_id, e.server, e.size) for e in layout.extents(50, 200)]
        [(0, 0, 50), (1, 1, 100), (2, 2, 50)]
        """
        if size <= 0:
            raise LayoutError(f"size must be positive, got {size}")
        if offset < 0:
            raise LayoutError(f"offset must be non-negative, got {offset}")
        extents: list[StripExtent] = []
        position = offset
        remaining = size
        while remaining > 0:
            strip_id = position // self.strip_size
            within = position - strip_id * self.strip_size
            chunk = min(remaining, self.strip_size - within)
            extents.append(
                StripExtent(
                    strip_id=strip_id,
                    server=self.server_for(strip_id),
                    offset=position,
                    size=chunk,
                )
            )
            position += chunk
            remaining -= chunk
        return extents
