"""Client OS kernel pieces: IRQ dispatch, softirq daemons, process table.

The interrupt delivery chain on the client is::

    Nic.complete_rx --> IoApic.raise_interrupt --(policy)--> LocalApic.deliver
        --> kernel IRQ entry (enqueue, ~free)
        --> SoftirqDaemon on the chosen core (the actual protocol work)
        --> PfsClient.strip_arrived (wake the consumer)

mirroring Linux, where the hardirq does almost nothing and the softirq
thread on the *same core* performs protocol processing (Sec. II-A).
"""

from .irq import wire_interrupts
from .process import ProcessTable
from .softirq import SoftirqDaemon

__all__ = ["SoftirqDaemon", "wire_interrupts", "ProcessTable"]
