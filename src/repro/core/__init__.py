"""The paper's contribution: source-aware interrupt scheduling.

* :mod:`~repro.core.policy` — the policy interface the I/O APIC consults,
  plus a registry keyed by the names used in experiment configs;
* :mod:`~repro.core.policies` — the conventional schemes (round-robin,
  dedicated, least-loaded, irqbalance) and the two source-aware policies of
  Sec. III (request core / current process core);
* :mod:`~repro.core.sais` — the four SAIs components of Fig. 3:
  ``HintMessager``, ``HintCapsuler``, ``SrcParser``, ``IMComposer``;
* :mod:`~repro.core.analysis` — the closed-form cost model of Sec. III,
  equations (1) through (9).
"""

from .analysis import AnalysisParams
from .policies import (
    AdaptiveSourceAwarePolicy,
    DedicatedPolicy,
    FlowDirectorPolicy,
    IrqbalancePolicy,
    LeastLoadedPolicy,
    RdmaZeroInterruptPolicy,
    RoundRobinPolicy,
    RpsRfsPolicy,
    RssPolicy,
    SourceAwarePolicy,
    SourceAwareProcessPolicy,
)
from .policy import (
    InterruptSchedulingPolicy,
    available_policies,
    create_policy,
    register_policy,
    unregister_policy,
)
from .sais import HintCapsuler, HintMessager, IMComposer, SrcParser

__all__ = [
    "InterruptSchedulingPolicy",
    "register_policy",
    "unregister_policy",
    "create_policy",
    "available_policies",
    "RoundRobinPolicy",
    "AdaptiveSourceAwarePolicy",
    "DedicatedPolicy",
    "LeastLoadedPolicy",
    "IrqbalancePolicy",
    "SourceAwarePolicy",
    "SourceAwareProcessPolicy",
    "RssPolicy",
    "FlowDirectorPolicy",
    "RpsRfsPolicy",
    "RdmaZeroInterruptPolicy",
    "HintMessager",
    "HintCapsuler",
    "SrcParser",
    "IMComposer",
    "AnalysisParams",
]
