"""Unified observability: causal span tracing + a metrics registry.

Two complementary layers, both **zero-cost when disabled**:

* :mod:`repro.obs.spans` — a causal span recorder threaded through the
  whole simulated stack (client fan-out -> PFS server -> switch fabric ->
  NIC wire -> APIC/IRQ -> softirq -> interconnect migration -> consumer
  merge).  Every span carries a parent id, so one logical read
  reconstructs as a tree; IRQ placement and cache-to-cache migrations are
  recorded as flow edges.  Disabled (the default) means *no recorder
  object exists at all*: every instrumentation site is a single
  ``if spans is not None`` guard, no span is allocated, and no calendar
  event is added or reordered — goldens and pinned event counts stay
  byte-identical (``tests/obs/test_zero_cost.py``).
* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` mapping dotted
  names to readers of the components' numeric attributes, busy-time
  totals and the fault/recovery record, so perfbench and tests read every
  component's counts from a single namespace.

Exports (:mod:`repro.obs.export`) target Chrome trace-event JSON —
loadable in ui.perfetto.dev or chrome://tracing — plus an ASCII tree/
timeline fallback.  ``python -m repro trace <experiment>`` drives it.

On top of the recorder sits :mod:`repro.obs.analysis`: per-strip stage
durations folded from span trees, the per-strip lifecycle breakdown (the
span tree is the only record of a strip's issued/served/received/handled/
merged stamps), and the ``sais-repro trace diff`` A/B attribution engine.

This package exports only the recorder and the registry, which every
simulation imports.  Import the trace-only names from their submodules
(:mod:`repro.obs.export`, :mod:`repro.obs.analysis`) so a plain ``run``
never loads them.

Determinism: span/flow ids are small integers advanced in calendar
(event-dispatch) order, and every timestamp is virtual time — wall clocks
never enter a trace, so traces are byte-reproducible run-to-run.
"""

from .registry import MetricsRegistry
from .spans import FlowEvent, Span, SpanRecorder, Track

__all__ = [
    "Span",
    "FlowEvent",
    "SpanRecorder",
    "Track",
    "MetricsRegistry",
]
