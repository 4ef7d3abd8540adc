"""A small, deterministic discrete-event simulation (DES) kernel.

This package is the substrate the whole SAIs reproduction runs on.  It is a
from-scratch generator-based DES in the style popularized by SimPy:

* :class:`~repro.des.environment.Environment` owns the virtual clock and the
  event calendar;
* :class:`~repro.des.events.Event` is a one-shot future that carries a value
  or an exception;
* :class:`~repro.des.process.Process` wraps a Python generator; the
  generator ``yield``\\ s events to wait on them and may be interrupted;
* :mod:`~repro.des.resources` provides FIFO and priority-queued resources,
  object stores and level containers used to model cores, buses, NICs and
  disks.

The kernel is fully deterministic: events that fire at the same virtual time
are processed in schedule order (FIFO within a priority class), so identical
seeds yield identical traces.
"""

from .environment import Environment
from .events import AllOf, AnyOf, Callback, Event, Timeout
from .process import Interrupt, Process
from .resources import (
    Barrier,
    Container,
    Preempted,
    PreemptiveResource,
    PriorityResource,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Callback",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "Resource",
    "PriorityResource",
    "PreemptiveResource",
    "Preempted",
    "Container",
    "Store",
    "Barrier",
]
