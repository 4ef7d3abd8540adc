"""A small, deterministic discrete-event simulation (DES) kernel.

This package is the substrate the whole SAIs reproduction runs on.  It is a
from-scratch generator-based DES in the style popularized by SimPy, cut
down to what the model uses:

* :class:`~repro.des.environment.Environment` owns the virtual clock and the
  event calendar;
* :class:`~repro.des.events.Event` is a one-shot future that carries a value
  or an exception; :class:`~repro.des.events.Timeout` fires after a delay
  and :class:`~repro.des.events.AllOf` once every child event has;
* :class:`~repro.des.process.Process` wraps a Python generator; the
  generator ``yield``\\ s events to wait on them;
* :mod:`~repro.des.resources` provides the fixed-service FIFO queue used
  for links, disks and buses, object stores, the barrier of MPI-IO
  collectives, and a general FIFO resource, kept as the oracle the
  fixed-service FIFO is tested against.  CPU cores
  and softirq backlogs own their queues in the model
  (:class:`repro.hw.core.Core`, :class:`repro.kernel.softirq.SoftirqDaemon`).

The kernel is fully deterministic: events that fire at the same virtual time
are processed in schedule order (FIFO within a priority class), so identical
seeds yield identical traces.
"""

from .environment import Environment
from .events import AllOf, Event, Timeout
from .process import Process
from .resources import (
    Barrier,
    FixedServiceFifo,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "FixedServiceFifo",
    "Resource",
    "Store",
    "Barrier",
]
