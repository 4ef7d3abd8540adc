"""Client OS kernel pieces: softirq daemons and the process table.

The interrupt delivery chain on the client is::

    Nic.complete_rx --> IoApic.raise_interrupt --(policy)-->
        SoftirqDaemon.enqueue on the chosen core (IRQ entry, ~free)
        --> SoftirqDaemon on that core (the actual protocol work)
        --> PfsClient.strip_arrived (wake the consumer)

mirroring Linux, where the hardirq does almost nothing and the softirq
thread on the *same core* performs protocol processing (Sec. II-A).
"""

from .process import ProcessTable
from .softirq import SoftirqDaemon

__all__ = ["SoftirqDaemon", "ProcessTable"]
