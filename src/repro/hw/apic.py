"""The interrupt routing fabric: the I/O APIC.

On the paper's x86 testbed the I/O APIC receives device interrupts and
routes them to local APICs according to its redirection table; interrupt
scheduling schemes (irqbalance, SAIs' ``IMComposer``) differ only in *which
destination core* ends up in the interrupt message.  We model exactly that
seam: the :class:`IoApic` consults a pluggable policy object for every
interrupt and hands an :class:`InterruptContext` to the chosen core's
delivery callable, the kernel's softirq entry on that core.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..des import Environment
from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.policy import InterruptSchedulingPolicy
    from .core import Core

__all__ = ["InterruptContext", "IoApic"]


@dataclasses.dataclass(slots=True)
class InterruptContext:
    """Everything the interrupt path knows when an interrupt is raised.

    ``aff_core_id`` is only non-None when the NIC driver's ``SrcParser``
    extracted a source-aware hint from the packet's IP options — i.e. when
    both ends run SAIs.  Policies that ignore it (round-robin, irqbalance)
    reproduce conventional behaviour.
    """

    #: The network packet (repro.net.packet.Packet) that caused the IRQ.
    packet: t.Any
    #: Parsed affinitive core id, if the driver found one.
    aff_core_id: int | None = None
    #: Set by RPS/RFS-style policies: the core the handling softirq
    #: should *re-steer* the protocol work to after the hardirq half
    #: (the hardware delivered to one fixed core; software moves the
    #: rest of the work to the flow's consumer).  None for policies
    #: that place the interrupt directly.
    rps_target: int | None = None
    #: When set, this is a NAPI poll request: the handling core should
    #: drain the NIC's pending queue (via ``napi_poll``) rather than
    #: process only ``packet``.  ``packet`` is the train head that
    #: triggered the interrupt (and what hint-based policies route by).
    napi_source: t.Any | None = None
    #: Open observability flow id (the IRQ-placement edge from the NIC
    #: wire span); the handling softirq terminates it.  None unless span
    #: tracing is enabled (:mod:`repro.obs`).  Pure bookkeeping — never
    #: consulted by any policy or timing decision.
    obs_flow: int | None = None


class IoApic:
    """Routes device interrupts to cores via a scheduling policy.

    ``deliver[i]`` is core ``i``'s interrupt entry (its softirq daemon's
    ``enqueue``): the hardirq top half is modeled as free, so the chosen
    core's entry is called directly.
    """

    def __init__(
        self,
        env: Environment,
        cores: t.Sequence["Core"],
        policy: "InterruptSchedulingPolicy",
        deliver: t.Sequence[t.Callable[[InterruptContext], None]],
        spans: t.Any | None = None,
        obs_track: t.Any | None = None,
    ) -> None:
        if not cores:
            raise SimulationError("IoApic needs at least one core")
        if len(deliver) != len(cores):
            raise SimulationError(
                f"{len(deliver)} interrupt entries for {len(cores)} cores"
            )
        self.env = env
        self.cores = list(cores)
        self.policy = policy
        self.deliver = list(deliver)
        #: Interrupts delivered per destination core: the one per-core
        #: interrupt count (``interrupts_per_core``).
        self.deliveries: list[int] = [0] * len(self.cores)
        #: Span recorder + this client's APIC lane (repro.obs); None off.
        self.spans = spans
        self.obs_track = obs_track

    def raise_interrupt(self, ctx: InterruptContext) -> None:
        """Route one device interrupt according to the installed policy."""
        core_index = self.policy.select_core(ctx, self.cores)
        if not 0 <= core_index < len(self.cores):
            raise SimulationError(
                f"policy {self.policy.name!r} chose invalid core {core_index}"
            )
        self.deliveries[core_index] += 1
        if self.spans is not None:
            packet = ctx.packet
            self.spans.instant(
                "irq",
                "irq",
                self.obs_track,
                parent=self.spans.strip_span(
                    packet.dst_client, packet.strip_id
                ),
                args={
                    "core": core_index,
                    "policy": self.policy.name,
                    "aff_core_id": ctx.aff_core_id,
                    "strip": packet.strip_id,
                },
            )
        self.deliver[core_index](ctx)
