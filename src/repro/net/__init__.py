"""Network substrate: packets, the SAIs IP-options hint, links and fabric.

The piece of this package that is *the paper's mechanism* is
:mod:`~repro.net.ip_options`: the bit-exact Figure 4 encoding that lets an
I/O server echo the client's ``aff_core_id`` back inside every returned
data packet, using a single 8-bit "simple option" in the IP header options
field (5-bit option number ⇒ at most 32 identifiable cores).
"""

from .ip_options import (
    MAX_ENCODABLE_CORES,
    decode_aff_core_id,
    encode_aff_core_id,
)
from .links import Link
from .packet import Packet
from .switch import Switch
from .tcp import TcpStream, segment_sizes, segments_for_strip

__all__ = [
    "Packet",
    "encode_aff_core_id",
    "decode_aff_core_id",
    "MAX_ENCODABLE_CORES",
    "Link",
    "Switch",
    "TcpStream",
    "segment_sizes",
    "segments_for_strip",
]
