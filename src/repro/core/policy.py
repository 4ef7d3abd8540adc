"""The interrupt-scheduling policy interface and registry.

A policy is the function the I/O APIC redirection logic computes: *given an
interrupt (and whatever the hardware/driver can know about it), which core
should handle it?*  Conventional policies look only at core utilization;
source-aware policies read the ``aff_core_id`` the SAIs components planted
in the packet.

Policies are registered by name so experiment configs can select them as
strings (``ClusterConfig.policy``) and the ablations can sweep the whole
registry.
"""

from __future__ import annotations

import abc
import typing as t

from ..errors import ConfigError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.apic import InterruptContext
    from ..hw.core import Core

__all__ = [
    "InterruptSchedulingPolicy",
    "register_policy",
    "unregister_policy",
    "create_policy",
    "available_policies",
    "unknown_policy_error",
]

_REGISTRY: dict[str, type["InterruptSchedulingPolicy"]] = {}


class InterruptSchedulingPolicy(abc.ABC):
    """Chooses the destination core for each device interrupt."""

    #: Registry key; subclasses must set it.
    name: t.ClassVar[str] = ""
    #: True if the policy needs the SAIs hint plumbing (HintMessager on the
    #: client, HintCapsuler on the servers, SrcParser in the NIC driver) to
    #: be installed for it to see ``aff_core_id``.
    requires_hints: t.ClassVar[bool] = False
    #: True if the policy removes interrupts from the receive path entirely
    #: (RDMA-style NIC-driven placement).  The client wires the NIC's
    #: zero-interrupt sink instead of the APIC chain; ``select_core`` is
    #: then only reached on stacks wired without the bypass.
    interrupt_free: t.ClassVar[bool] = False

    @abc.abstractmethod
    def select_core(
        self, ctx: "InterruptContext", cores: t.Sequence["Core"]
    ) -> int:
        """Return the index of the core that should handle ``ctx``."""

    def observe_tx(self, server: int, core: int) -> None:
        """Transmit-side sampling hook (Flow Director ATR).

        Called by the client for every outbound strip request with the
        flow identity (the per-server TCP connection) and the core the
        requesting process issued from.  Policies without NIC-side flow
        tables ignore it.
        """

    def enable_degraded_fallback(self) -> None:
        """Arm the policy's graceful-degradation path, if it has one.

        Called by the cluster builder when a fault plan is active (a
        middlebox may be stripping the SAIs option).  Policies that do
        not distinguish hinted from unhinted traffic ignore this.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def register_policy(
    cls: type[InterruptSchedulingPolicy],
) -> type[InterruptSchedulingPolicy]:
    """Class decorator adding a policy to the registry under ``cls.name``."""
    if not cls.name:
        raise ConfigError(f"{cls.__name__} must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ConfigError(f"policy name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def unregister_policy(name: str) -> None:
    """Remove a policy from the registry (test isolation hook).

    Tests that register throwaway policies must unregister them in a
    ``finally`` block, or the registry-dynamic steering experiments (and
    their goldens) see the leftover name.
    """
    _REGISTRY.pop(name, None)


def unknown_policy_error(name: str) -> ConfigError:
    """The uniform unknown-policy error every entry point raises.

    Config validation, ``create_policy`` and the CLI ``--policy`` paths
    all funnel through this so the message format — including the full
    list of registered names — stays identical everywhere (the format is
    locked by ``tests/core/test_policy_invariants.py``).
    """
    return ConfigError(
        f"unknown policy {name!r}; available: {', '.join(available_policies())}"
    )


def create_policy(name: str) -> InterruptSchedulingPolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise unknown_policy_error(name) from None
    return cls()


def available_policies() -> list[str]:
    """Sorted names of all registered policies."""
    return sorted(_REGISTRY)
