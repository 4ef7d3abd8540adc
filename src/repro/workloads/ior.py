"""An IOR-style parallel workload (the paper's benchmark, Sec. V-B).

Each IOR process synchronously works through its own contiguous segment of
the shared file in ``transfer_size`` chunks.

Read mode (the paper's focus) — per request it

1. issues the read (fan-out to the I/O servers),
2. merges every strip as it arrives (paying the policy-dependent
   local-copy vs migration vs refetch cost),
3. runs the paper's added compute task ("these computing tasks encrypt the
   data collected by every IOR request").

Write mode (implemented to verify the paper's scoping claim that writes
have no interrupt-locality issue) — per request it prepares/encrypts the
buffer, streams the strips out, and waits for the servers' tiny acks; no
data-bearing interrupts arrive, so scheduling policy cannot matter.

Processes are pinned one-per-core (MPI-rank style; SAIs requires the
requester to stay put while blocked).  Setting
``WorkloadConfig.migrate_during_io`` unpins them and lets a process hop to
a random core while a request is outstanding — the Sec. III policy (i) vs
policy (ii) ablation.
"""

from __future__ import annotations

import typing as t

from ..config import WorkloadConfig
from ..des import Barrier, Process
from ..errors import ConfigError
from ..rng import Pcg64Stream

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.client_node import ClientNode

__all__ = ["ior_process", "spawn_ior_processes"]


def ior_process(
    node: "ClientNode",
    pid: int,
    core_index: int,
    workload: WorkloadConfig,
    segment_offset: int,
    rng: Pcg64Stream | None = None,
    barrier: Barrier | None = None,
) -> t.Generator:
    """One IOR process; returns the bytes it moved when it finishes."""
    migratory = workload.migrate_during_io > 0.0
    randomized = workload.access_pattern == "random"
    if (migratory or randomized) and rng is None:
        raise ConfigError(
            "migrate_during_io / random access need an rng stream"
        )
    if workload.collective and barrier is None:
        raise ConfigError("collective I/O needs a shared barrier")
    node.processes.spawn(pid, core_index, pinned=not migratory)
    transfer = workload.transfer_size
    is_write = workload.operation == "write"
    current_core = core_index
    bytes_done = 0
    order = list(range(workload.requests_per_process))
    if randomized:
        # IOR's random mode: same transfers, shuffled visit order.
        rng.shuffle(order)
    try:
        for k in order:
            if barrier is not None:
                # MPI_File_read_all-style rendezvous: nobody starts
                # iteration k until everyone finished iteration k-1.
                yield barrier.wait()
            offset = segment_offset + k * transfer
            if is_write:
                # Prepare (encrypt) the buffer before sending it out.
                yield from node.compute(current_core, transfer)
            outstanding = yield from node.issue_request(
                offset, transfer, current_core, write=is_write
            )
            if migratory and rng.random() < workload.migrate_during_io:
                # The OS rebalances the blocked process mid-request: the
                # already-sent hint (policy i) now points at a stale core,
                # while a process-locator policy (ii) keeps tracking it.
                new_core = rng.integers(0, len(node.cores))
                if new_core != current_core:
                    node.processes.migrate(pid, new_core)
                    current_core = new_core
                    outstanding.consumer_core = new_core
            for _ in range(outstanding.expected):
                strip = yield outstanding.arrivals.get()
                if not is_write:
                    yield from node.merge_strip(current_core, strip)
            if not is_write:
                yield from node.compute(current_core, transfer)
            node.pfs.retire(outstanding.request.request_id)
            bytes_done += transfer
    finally:
        node.processes.exit(pid)
    return bytes_done


def spawn_ior_processes(
    node: "ClientNode",
    workload: WorkloadConfig,
    pid_base: int = 0,
    segment_base: int = 0,
    rng: Pcg64Stream | None = None,
) -> list[Process]:
    """Start the node's IOR processes, pinned round-robin over its cores.

    ``segment_base`` offsets this node's file segments so multiple client
    nodes read disjoint regions (and therefore rotate differently over the
    servers), as in the Fig. 12 multi-client experiment.
    """
    n_cores = len(node.cores)
    if workload.n_processes > n_cores * 64:
        raise ConfigError(
            f"{workload.n_processes} processes on {n_cores} cores is outside "
            "the modeled regime"
        )
    barrier = (
        Barrier(node.env, workload.n_processes) if workload.collective else None
    )
    processes = []
    for local_pid in range(workload.n_processes):
        pid = pid_base + local_pid
        core_index = local_pid % n_cores
        segment_offset = (segment_base + local_pid) * workload.file_size
        processes.append(
            node.env.process(
                ior_process(
                    node,
                    pid,
                    core_index,
                    workload,
                    segment_offset,
                    rng=rng,
                    barrier=barrier,
                )
            )
        )
    return processes
