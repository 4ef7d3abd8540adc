"""The :class:`FaultPlan` configuration: what can go wrong, and how often.

A fault plan is a frozen, pickleable description of the hazards injected
into one run — packet loss and corruption, reordering delay, an
option-stripping middlebox, straggling and transiently-failing servers —
plus the knobs of the recovery mechanisms that keep the run *completing*
instead of crashing (link retransmission, client-side strip retry).

Like every config dataclass it validates eagerly in ``__post_init__`` and
participates in the runner's content-addressed cache keys, so editing any
field invalidates exactly the results it affects.  ``load_fault_plan``
reads a plan from a JSON file for the CLI's ``--fault-plan`` flag, raising
a uniform :class:`~repro.errors.ConfigError` on anything malformed (the
``resolve_scale()`` hardening pattern).
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..errors import ConfigError, read_json

__all__ = [
    "FaultPlan",
    "fault_plan_from_mapping",
    "load_fault_plan",
]


def _is_int(value: t.Any) -> bool:
    """True for a genuine int: JSON ``true`` parses to a bool, which
    Python counts as an int but no plan field means."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seed-driven description of injected faults.

    Per-packet decisions (drop / strip / corrupt / delay) are keyed by
    :func:`repro.rng.hash_unit` on the packet's identity and
    :attr:`seed` — a property of the *packet*, not of event order — so
    the fault pattern is byte-identical across ``--jobs N`` workers and
    paired across baseline/treatment policy runs.
    """

    #: Probability that a link transmission is lost (per attempt).  Lost
    #: packets are recovered by TCP retransmission with exponential
    #: backoff; 1.0 would retransmit forever and is rejected.
    loss_prob: float = 0.0
    #: Probability that the middlebox garbles a packet's IP options
    #: field (first octet randomized; SAIs must tolerate the result).
    corrupt_prob: float = 0.0
    #: Probability that the middlebox holds a packet back by a random
    #: extra delay in (0, ``reorder_window``] — the Flow-Director-style
    #: reordering hazard.
    reorder_prob: float = 0.0
    #: Upper bound of the extra reordering delay, seconds.
    reorder_window: float = 300e-6
    #: Probability that the "option-stripping middlebox" clears a
    #: packet's IP options entirely (unknown options are commonly
    #: dropped by real middleboxes), blinding SAIs for that packet.
    strip_option_prob: float = 0.0
    #: Server indices that run slow for the whole experiment.
    straggler_servers: tuple[int, ...] = ()
    #: Service-time multiplier applied to straggler storage fetches.
    straggler_slowdown: float = 1.0
    #: Transient failures: ``(server, start, end)`` windows of simulated
    #: time during which the server silently drops incoming requests
    #: (client retry recovers them once the window closes).
    server_failure_windows: tuple[tuple[int, float, float], ...] = ()
    #: Salt for all per-packet fault decisions; ``--fault-seed``.
    seed: int = 0
    #: Base link retransmission timeout, seconds.
    retransmit_timeout: float = 1e-3
    #: Exponential backoff factor per retransmission.
    retransmit_backoff: float = 2.0
    #: Cap on any single retransmission backoff delay, seconds.
    retransmit_cap: float = 64e-3
    #: Client-side per-strip retry timeout before the first retry.
    strip_retry_timeout: float = 0.5
    #: Backoff factor per strip retry.
    strip_retry_backoff: float = 2.0
    #: Strip re-submissions before ``StripRetryExhaustedError``.
    max_strip_retries: int = 3

    def __post_init__(self) -> None:
        for name in ("seed", "max_strip_retries"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be an int, got {getattr(self, name)!r}"
                )
        for name in ("corrupt_prob", "reorder_prob", "strip_option_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(
                f"loss_prob must be in [0, 1) — 1.0 would retransmit "
                f"forever — got {self.loss_prob}"
            )
        if self.reorder_window <= 0:
            raise ConfigError(
                f"reorder_window must be positive, got {self.reorder_window}"
            )
        if self.straggler_slowdown < 1.0:
            raise ConfigError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        for server in self.straggler_servers:
            if not _is_int(server) or server < 0:
                raise ConfigError(
                    f"straggler_servers must hold non-negative ints, "
                    f"got {server!r}"
                )
        for window in self.server_failure_windows:
            if len(window) != 3:
                raise ConfigError(
                    f"failure window must be (server, start, end), got {window!r}"
                )
            server, start, end = window
            if not _is_int(server) or server < 0:
                raise ConfigError(
                    f"server_failure_windows server must be a non-negative "
                    f"int, got {server!r}"
                )
            if not 0 <= start < end:
                raise ConfigError(
                    f"failure window needs 0 <= start < end, got {window!r}"
                )
        for name in (
            "retransmit_timeout",
            "retransmit_cap",
            "strip_retry_timeout",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("retransmit_backoff", "strip_retry_backoff"):
            if getattr(self, name) < 1.0:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.max_strip_retries < 0:
            raise ConfigError(
                f"max_strip_retries must be >= 0, got {self.max_strip_retries}"
            )

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all.

        A null plan builds the exact same cluster as ``faults=None`` —
        the zero-cost-when-disabled guarantee the golden-snapshot tests
        pin down.
        """
        return (
            self.loss_prob == 0.0
            and self.corrupt_prob == 0.0
            and self.reorder_prob == 0.0
            and self.strip_option_prob == 0.0
            and (not self.straggler_servers or self.straggler_slowdown == 1.0)
            and not self.server_failure_windows
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan under a different fault seed."""
        return dataclasses.replace(self, seed=int(seed))


def fault_plan_from_mapping(payload: t.Mapping[str, t.Any]) -> FaultPlan:
    """Build a :class:`FaultPlan` from a parsed-JSON style mapping.

    Unknown keys and wrong-typed values raise
    :class:`~repro.errors.ConfigError`, never a raw ``TypeError``.
    """
    if not isinstance(payload, t.Mapping):
        raise ConfigError(
            f"fault plan must be a JSON object, got {type(payload).__name__}"
        )
    known = {field.name for field in dataclasses.fields(FaultPlan)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"unknown fault plan key(s): {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(known))}"
        )
    kwargs: dict[str, t.Any] = dict(payload)
    if "straggler_servers" in kwargs:
        servers = kwargs["straggler_servers"]
        if not isinstance(servers, (list, tuple)):
            raise ConfigError(
                f"straggler_servers must be a list, got {servers!r}"
            )
        kwargs["straggler_servers"] = tuple(servers)
    if "server_failure_windows" in kwargs:
        windows = kwargs["server_failure_windows"]
        if not isinstance(windows, (list, tuple)) or not all(
            isinstance(w, (list, tuple)) for w in windows
        ):
            raise ConfigError(
                "server_failure_windows must be a list of "
                f"[server, start, end] triples, got {windows!r}"
            )
        kwargs["server_failure_windows"] = tuple(
            tuple(window) for window in windows
        )
    try:
        return FaultPlan(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid fault plan: {exc}") from exc


def load_fault_plan(path: str) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file (CLI ``--fault-plan``).

    Every failure mode — unreadable file, invalid JSON, non-object
    payload, unknown keys, out-of-range values — surfaces as a uniform
    :class:`~repro.errors.ConfigError` naming the file.
    """
    payload = read_json(path, "fault plan")
    try:
        return fault_plan_from_mapping(payload)
    except ConfigError as exc:
        raise ConfigError(f"fault plan {path!r}: {exc}") from exc
