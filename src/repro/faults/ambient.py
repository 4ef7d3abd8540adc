"""Process-wide "ambient" fault plan installed by the CLI.

``--fault-plan``/``--fault-seed`` should degrade *existing* experiments
without every grid builder growing a plan parameter: the CLI installs the
loaded plan here for one command (:func:`using_fault_plan`), and the
cluster-simulation grid builders route their configs through
:func:`apply_ambient_faults`.

The ambient plan only influences *grid construction* (which happens in
the parent process) — the plan then travels inside the pickled config
specs, so pool workers and cache keys see it without any global state of
their own.  Experiments that build their own fault plans (the resilience
sweeps) and the analytic/memory-model experiments (no cluster simulation)
ignore it.
"""

from __future__ import annotations

import contextlib
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ClusterConfig
    from .plan import FaultPlan

__all__ = [
    "ambient_fault_plan",
    "apply_ambient_faults",
    "using_fault_plan",
]

_AMBIENT: "FaultPlan | None" = None


def ambient_fault_plan() -> "FaultPlan | None":
    """The currently-installed ambient plan, if any."""
    return _AMBIENT


def apply_ambient_faults(config: "ClusterConfig") -> "ClusterConfig":
    """Attach the ambient plan to a config that does not carry one.

    A config with its own ``faults`` (the resilience experiments) wins
    over the ambient plan.
    """
    plan = _AMBIENT
    if plan is None or config.faults is not None:
        return config
    return config.replace(faults=plan)


@contextlib.contextmanager
def using_fault_plan(plan: "FaultPlan | None") -> t.Iterator[None]:
    """Install ``plan`` (or none) for a ``with`` block, then restore."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = plan
    try:
        yield
    finally:
        _AMBIENT = previous
