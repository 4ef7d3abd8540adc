"""Run memory-simulation points and the Fig. 14 application sweep."""

from __future__ import annotations

import dataclasses
import typing as t

from ..des import AllOf, Environment
from ..errors import ConfigError
from ..hw.core import Core
from ..hw.memory import MemoryBus
from ..units import sum_left
from .config import MemsimConfig
from .pair import AppPair

__all__ = ["MemsimMetrics", "run_memsim_point", "sweep_applications"]

#: The two data-processing methods of Fig. 13.
SCHEMES = ("si_sais", "si_irqbalance")


@dataclasses.dataclass(frozen=True)
class MemsimMetrics:
    """One memory-simulation measurement point."""

    scheme: str
    n_apps: int
    elapsed: float
    bytes_combined: int
    bandwidth: float
    cpu_utilization: float
    l2_miss_rate: float
    membus_busy_fraction: float


def run_memsim_point(
    scheme: str, n_apps: int, config: MemsimConfig | None = None
) -> MemsimMetrics:
    """Run ``n_apps`` concurrent pairs under one scheme.

    ``si_sais`` colocates each pair on one core (thread pair);
    ``si_irqbalance`` puts reader and combiner on separate cores
    (process pair).
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n_apps < 1:
        raise ConfigError(f"n_apps must be >= 1, got {n_apps}")
    cfg = config or MemsimConfig()

    env = Environment()
    cores = [Core(env, i, cfg.clock_hz) for i in range(cfg.n_cores)]
    membus = MemoryBus(env, cfg.memory_bandwidth)
    line_counts = [0.0, 0.0]  # accesses, misses; shared by every pair

    # Both schemes run a two-thread pipeline over two cores; what differs
    # is whether the pair shares an address space (Si-SAIs threads) or
    # crosses one (Si-Irqbalance processes).
    hot_fraction = cfg.cache_hot_fraction(n_apps, threads_per_app=2)

    pairs: list[AppPair] = []
    for app in range(n_apps):
        reader_core = cores[(2 * app) % cfg.n_cores]
        combiner_core = cores[(2 * app + 1) % cfg.n_cores]
        pairs.append(
            AppPair(
                env,
                cfg,
                reader_core=reader_core,
                combiner_core=combiner_core,
                membus=membus,
                cache_hot_fraction=hot_fraction,
                line_counts=line_counts,
                shared_address_space=(scheme == "si_sais"),
            )
        )

    processes = [env.process(pair.run()) for pair in pairs]
    env.run(until=AllOf(env, processes))
    elapsed = env.now
    total = sum(pair.bytes_combined for pair in pairs)
    accesses, misses = line_counts

    return MemsimMetrics(
        scheme=scheme,
        n_apps=n_apps,
        elapsed=elapsed,
        bytes_combined=total,
        bandwidth=total / elapsed if elapsed > 0 else 0.0,
        cpu_utilization=(
            sum_left(core.busy_time for core in cores)
            / (cfg.n_cores * elapsed)
            if elapsed > 0
            else 0.0
        ),
        l2_miss_rate=misses / accesses if accesses else 0.0,
        membus_busy_fraction=(
            membus.busy_time / elapsed if elapsed > 0 else 0.0
        ),
    )


def sweep_applications(
    app_counts: t.Sequence[int],
    config: MemsimConfig | None = None,
) -> dict[str, list[MemsimMetrics]]:
    """The Fig. 14 sweep: both schemes across application counts."""
    return {
        scheme: [run_memsim_point(scheme, n, config) for n in app_counts]
        for scheme in SCHEMES
    }
