"""The pinned benchmark suite.

Each entry is one deterministic simulation point chosen to exercise a
distinct kernel regime:

* ``mtu1500_read`` — standard-Ethernet MSS: every 64 KiB strip travels as
  a ~44-segment train, so per-segment wire/interrupt events dominate.
  This is the regime the coalesced wire fast path targets.
* ``jumbo9k_read`` — jumbo-frame MSS (the resilience sweeps' fabric):
  ~8 segments per strip, an even mix of per-segment and per-strip work.
* ``strip_train_read`` — ``mss=None`` (the paper's one-interrupt-per-strip
  accounting): per-strip events dominate; measures the non-segmented path
  the Fig. 5–11 sweeps spend most of their time in.
* ``micro_read`` — a seconds-scale smoke point small enough for unit tests
  and CI to run the full bench machinery end-to-end.

All entries run fault-free under the ``source_aware`` policy, except
where noted; the ``full`` scale adds the irqbalance policy
path, NAPI coalescing and the write path.

``fanin_multiclient`` (full scale only) is the suite's largest point: four
clients each reading from sixteen servers at MSS 1500, so per-segment
client-side NIC and softirq work dominates.
"""

from __future__ import annotations

import dataclasses

from ..config import ClusterConfig, NetworkConfig, WorkloadConfig
from ..experiments.grids import nic_config
from ..units import KiB, MiB

__all__ = ["BenchEntry", "bench_entries", "entry_by_name"]


@dataclasses.dataclass(frozen=True)
class BenchEntry:
    """One pinned benchmark point."""

    name: str
    title: str
    config: ClusterConfig
    #: Included in the quick suite (CI smoke + the committed trajectory).
    quick: bool = True


def _point(
    mss: int | None,
    *,
    policy: str = "source_aware",
    transfer: int = 512 * KiB,
    file_size: int = 2 * MiB,
    n_processes: int = 4,
    operation: str = "read",
    napi: bool = False,
) -> ClusterConfig:
    """The suite's common 8-server, 3-Gigabit-client point."""
    client = nic_config(3)
    if napi:
        client = dataclasses.replace(client, napi=True)
    return ClusterConfig(
        n_servers=8,
        client=client,
        network=NetworkConfig(mss=mss),
        workload=WorkloadConfig(
            n_processes=n_processes,
            transfer_size=transfer,
            file_size=file_size,
            operation=operation,
        ),
        policy=policy,
    )


def _fanin_point(n_clients: int) -> ClusterConfig:
    """A full-scale multiclient fan-in: ``n_clients`` clients, 16 servers,
    MSS 1500 (the bulk of the events land on the client side)."""
    return ClusterConfig(
        n_servers=16,
        n_clients=n_clients,
        client=nic_config(3),
        network=NetworkConfig(mss=1500),
        workload=WorkloadConfig(
            n_processes=4,
            transfer_size=512 * KiB,
            file_size=4 * MiB,
        ),
        policy="source_aware",
    )


def _scenario_point() -> ClusterConfig:
    """One generator-drawn point, pinning scenario expansion in bench.

    Any drift in the generator's draws changes this entry's config (and
    thus its simulated work), so the committed trajectory doubles as a
    byte-reproducibility canary for :mod:`repro.scenarios`.
    """
    from ..scenarios import BUILTIN_SPECS, generate_scenarios

    return generate_scenarios(
        BUILTIN_SPECS["heterogeneous"], 1, seed=3, scale="quick"
    )[0].config


def bench_entries(scale: str = "quick") -> tuple[BenchEntry, ...]:
    """The pinned suite; ``scale`` is ``"quick"`` or ``"full"``."""
    entries = (
        BenchEntry(
            name="mtu1500_read",
            title="read, MSS 1500 (segment-train heavy)",
            config=_point(1500),
        ),
        BenchEntry(
            name="jumbo9k_read",
            title="read, MSS 8960 (jumbo frames)",
            config=_point(8960),
        ),
        BenchEntry(
            name="strip_train_read",
            title="read, coalesced strip trains (mss=None)",
            config=_point(None),
        ),
        BenchEntry(
            name="micro_read",
            title="micro smoke point (tiny file, MSS 1500)",
            config=_point(
                1500, transfer=128 * KiB, file_size=256 * KiB, n_processes=2
            ),
        ),
        BenchEntry(
            name="scenario_mixed",
            title="generated scenario (heterogeneous spec, seed 3)",
            config=_scenario_point(),
        ),
        BenchEntry(
            name="fanin_multiclient",
            title="4-client fan-in, 16 servers",
            config=_fanin_point(4),
            quick=False,
        ),
        BenchEntry(
            name="irqbalance_jumbo9k",
            title="read, MSS 8960, irqbalance policy",
            config=_point(8960, policy="irqbalance"),
            quick=False,
        ),
        BenchEntry(
            name="napi_mtu1500",
            title="read, MSS 1500, NAPI coalescing",
            config=_point(1500, napi=True),
            quick=False,
        ),
        BenchEntry(
            name="write_path",
            title="write, coalesced strip trains",
            config=_point(None, operation="write"),
            quick=False,
        ),
    )
    if scale == "quick":
        return tuple(e for e in entries if e.quick)
    if scale == "full":
        return entries
    raise ValueError(f"unknown bench scale {scale!r} (quick/full)")


def entry_by_name(name: str, scale: str = "full") -> BenchEntry:
    """Look up one entry by its suite name."""
    for entry in bench_entries(scale):
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in bench_entries(scale))
    raise KeyError(f"unknown bench entry {name!r} (known: {known})")
