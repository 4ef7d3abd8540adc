"""Measurement collection and reporting.

Implements the paper's four evaluation metrics (Sec. V):

* **bandwidth** — bytes merged by the applications / makespan;
* **L2 cache miss rate** — misses / accesses from the cache directory;
* **CPU utilization** — busy time / (cores x makespan), like ``sar``;
* **CPU_CLK_UNHALTED** — busy seconds x clock, like the Oprofile event.

Each is measured once, by
:func:`~repro.metrics.collectors.collect_client_metrics` from core busy
time and the cache and bus counters.  :mod:`~repro.metrics.ascii_plot`
renders figure tables as terminal bars.
Per-strip lifecycle breakdowns come from span traces
(:func:`repro.obs.analysis.breakdown_from_spans`).
"""

from .ascii_plot import bar_chart, grouped_bars, plot_result
from .collectors import (
    ClientMetrics,
    ResilienceMetrics,
    RunMetrics,
    collect_client_metrics,
    collect_resilience_metrics,
)
from .report import render_table, speedup

__all__ = [
    "ClientMetrics",
    "ResilienceMetrics",
    "RunMetrics",
    "collect_client_metrics",
    "collect_resilience_metrics",
    "render_table",
    "speedup",
    "bar_chart",
    "grouped_bars",
    "plot_result",
]
