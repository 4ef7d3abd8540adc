"""Units and quantity helpers.

Internal conventions used throughout the simulator:

* **time** is measured in seconds (floats on the virtual clock);
* **sizes** are measured in bytes (ints);
* **bandwidth** is measured in bytes/second;
* **frequency** is measured in Hz.

This module provides constants and small parsing helpers so experiment
configurations can be written the way the paper writes them ("64KB strip",
"1 Gigabit NIC", "2M transfer size").

The paper (and IOR) use the storage convention where K/M/G size suffixes are
binary (KiB/MiB/GiB) while network bandwidths are decimal (1 Gigabit =
1e9 bit/s); we follow both conventions.
"""

from __future__ import annotations

import re
import typing as t

from .errors import ConfigError

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "Kbit",
    "Mbit",
    "Gbit",
    "USEC",
    "MSEC",
    "GHz",
    "MHz",
    "parse_size",
    "format_size",
    "format_time",
    "bits_per_sec",
    "sum_left",
]

# Binary size units (storage sizes, strip/transfer sizes).
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# Decimal size units (rarely used, provided for completeness).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# Network bandwidth units, expressed in *bytes per second* so they can be
# assigned directly to link/NIC bandwidth fields.
Kbit = 1000 / 8
Mbit = 1000 * Kbit
Gbit = 1000 * Mbit

# Time units in seconds.
USEC = 1e-6
MSEC = 1e-3

# Frequency units in Hz.
MHz = 1e6
GHz = 1e9

_SIZE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<suffix>[KkMmGgTt]?)(?:i?[Bb])?\s*$"
)

_SUFFIX_FACTOR = {
    "": 1,
    "K": KiB,
    "M": MiB,
    "G": GiB,
    "T": 1024 * GiB,
}


def parse_size(text: str | int) -> int:
    """Parse a size like ``"64K"``, ``"1M"``, ``"2MB"`` or ``"10GB"`` to bytes.

    Integers pass through unchanged.  Suffixes follow the storage (binary)
    convention the paper uses for strip and transfer sizes: ``K`` = KiB,
    ``M`` = MiB, ``G`` = GiB.

    >>> parse_size("64K")
    65536
    >>> parse_size("1M")
    1048576
    >>> parse_size(512)
    512
    """
    if isinstance(text, int):
        if text < 0:
            raise ConfigError(f"size must be non-negative, got {text}")
        return text
    match = _SIZE_RE.match(text)
    if match is None:
        raise ConfigError(f"unparseable size: {text!r}")
    value = float(match.group("num")) * _SUFFIX_FACTOR[match.group("suffix").upper()]
    if value != int(value):
        raise ConfigError(f"size {text!r} is not a whole number of bytes")
    return int(value)


def format_size(nbytes: int) -> str:
    """Render a byte count the way the paper labels its x-axes (128K, 1M...)."""
    if nbytes < 0:
        raise ConfigError(f"size must be non-negative, got {nbytes}")
    for factor, suffix in ((GiB, "G"), (MiB, "M"), (KiB, "K")):
        if nbytes >= factor and nbytes % factor == 0:
            return f"{nbytes // factor}{suffix}"
    if nbytes >= KiB:
        return f"{nbytes / MiB:.2f}M"
    return f"{nbytes}B"


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= MSEC:
        return f"{seconds / MSEC:.3f} ms"
    return f"{seconds / USEC:.3f} us"


def bits_per_sec(bytes_per_sec: float) -> float:
    """Convert a bytes/second bandwidth to bits/second."""
    return bytes_per_sec * 8.0


def sum_left(values: t.Iterable[float]) -> float:
    """Sum left to right, rounding after each addition.

    This is what ``sum()`` computes on Python 3.11 and earlier.  From 3.12
    on, ``sum()`` compensates float rounding, so a result that sums floats
    would read differently per Python version; result paths sum with this.

    >>> sum_left([1e16, 1.0, -1e16])
    0.0
    """
    total = 0
    for value in values:
        total += value
    return total
