"""Deterministic fault injection and the graceful-degradation machinery.

Real deployments of the paper's design face hazards the base simulator
does not model: middleboxes strip unknown IP options (blinding SAIs),
NIC-level steering reorders packets, links drop frames, and parallel
reads are gated by straggling or transiently-failing servers.  This
package injects exactly those hazards — reproducibly, from a single
seed — and provides the recovery paths that turn them into *degraded
performance* instead of crashes:

* :class:`FaultPlan` — the frozen, cache-keyable description of what is
  injected (probabilities, windows, recovery knobs);
* :class:`FaultInjector` — the live engine the links, switch and servers
  consult, with per-packet decisions keyed by :func:`repro.rng.hash_unit`
  so fault patterns are order-independent and A/B-paired;
* the ambient-plan hooks behind the CLI's ``--fault-plan`` flag.

When a config carries no plan (or a null one), none of this is wired at
all — the fault layer is provably zero-cost when disabled, a property the
golden-snapshot tests pin byte-for-byte.
"""

from .ambient import (
    ambient_fault_plan,
    apply_ambient_faults,
    using_fault_plan,
)
from .injector import FaultInjector, LinkFaults
from .plan import FaultPlan, fault_plan_from_mapping, load_fault_plan

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "LinkFaults",
    "fault_plan_from_mapping",
    "load_fault_plan",
    "ambient_fault_plan",
    "apply_ambient_faults",
    "using_fault_plan",
]
