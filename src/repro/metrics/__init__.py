"""Measurement collection and reporting.

Implements the paper's four evaluation metrics (Sec. V):

* **bandwidth** — bytes merged by the applications / makespan;
* **L2 cache miss rate** — misses / accesses from the cache directory;
* **CPU utilization** — busy time / (cores x makespan), like ``sar``;
* **CPU_CLK_UNHALTED** — busy seconds x clock, like the Oprofile event.

Beyond the paper's four metrics, :mod:`~repro.metrics.sar` samples
utilization over time the way ``sar`` does, and
:mod:`~repro.metrics.ascii_plot` renders figure tables as terminal bars.
Per-strip lifecycle breakdowns come from span traces
(:func:`repro.obs.analysis.breakdown_from_spans`).
"""

from .ascii_plot import (
    bar_chart,
    core_heatmap,
    grouped_bars,
    heat_strip,
    plot_result,
)
from .collectors import (
    ClientMetrics,
    ResilienceMetrics,
    RunMetrics,
    collect_client_metrics,
    collect_resilience_metrics,
)
from .report import render_table, speedup
from .sar import SarSample, SarSampler

__all__ = [
    "ClientMetrics",
    "ResilienceMetrics",
    "RunMetrics",
    "collect_client_metrics",
    "collect_resilience_metrics",
    "render_table",
    "speedup",
    "SarSampler",
    "SarSample",
    "bar_chart",
    "grouped_bars",
    "plot_result",
    "heat_strip",
    "core_heatmap",
]
