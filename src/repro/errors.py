"""Exception hierarchy for the SAIs reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.
"""

from __future__ import annotations

import os

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "ProtocolError",
    "CoreIdOutOfRangeError",
    "LayoutError",
    "StripRetryExhaustedError",
    "ensure_parent_dir",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class ProtocolError(ReproError, ValueError):
    """A network packet or protocol field could not be encoded/decoded."""


class CoreIdOutOfRangeError(ProtocolError):
    """``aff_core_id`` does not fit the 5-bit IP option number field.

    The paper's Figure 4 encoding dedicates 5 bits to the affinitive core,
    so at most :data:`repro.net.ip_options.MAX_ENCODABLE_CORES` (32) cores
    can be identified by SAIs.
    """


class LayoutError(ReproError, ValueError):
    """A file striping layout request was out of bounds or malformed."""


class StripRetryExhaustedError(SimulationError):
    """A strip request stayed unanswered through every client-side retry.

    Raised by the PFS client's per-strip retry watchdog
    (:class:`repro.pfs.client.PfsClient`) when a fault plan's
    ``max_strip_retries`` re-submissions all time out — e.g. a server
    whose transient-failure window outlasts the retry budget.
    """


def ensure_parent_dir(path: str, flag: str) -> None:
    """Reject an output ``path`` whose parent directory does not exist.

    ``open(path, "w")`` would raise a raw ``FileNotFoundError``, and only
    once the work is done; a typo'd directory deserves the uniform exit-2
    ConfigError every other bad argument gets, before anything runs.
    ``flag`` names the option in the message (``--out``, ``--report``).
    """
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise ConfigError(
            f"{flag} {path!r}: parent directory {parent!r} does not exist"
        )
