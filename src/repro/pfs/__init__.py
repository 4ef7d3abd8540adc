"""A PVFS-style parallel file system model.

One logical client read fans out into per-server *strip* requests according
to a round-robin :class:`~repro.pfs.layout.StripeLayout` (64 KiB strips in
the paper).  Each :class:`~repro.pfs.server.IoServer` serves its strips from
a disk + page-cache model and returns them as network packets — optionally
stamped with the SAIs ``aff_core_id`` hint by a
:class:`~repro.core.sais.HintCapsuler`.  The
:class:`~repro.pfs.client.PfsClient` tracks outstanding requests and hands
arriving strips to the consuming application.
"""

from .client import OutstandingRequest, PfsClient
from .layout import StripExtent, StripeLayout
from .request import IoRequest, StripRequest

__all__ = [
    "StripeLayout",
    "StripExtent",
    "IoRequest",
    "StripRequest",
    "PfsClient",
    "OutstandingRequest",
]
