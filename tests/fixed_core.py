"""A test-only interrupt policy that pins every interrupt to one core.

Routing tests need a destination they choose; no registered policy takes
one.  The class is deliberately not registered, so the policy registry
(and every experiment sweeping it) never sees it.
"""

from repro.core.policy import InterruptSchedulingPolicy


class FixedCorePolicy(InterruptSchedulingPolicy):
    """Every interrupt to ``core_index``."""

    name = "fixed_core"

    def __init__(self, core_index: int) -> None:
        self.core_index = core_index

    def select_core(self, ctx, cores):
        return self.core_index
