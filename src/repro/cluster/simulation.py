"""Top-level experiment runner.

``run_experiment(config)`` builds the cluster, runs the configured IOR
workload to completion and returns :class:`~repro.metrics.RunMetrics`.
``compare_policies(config)`` runs the same point under a baseline and a
treatment policy (same seed, so both see identical server-side jitter) and
reports the speed-up — the quantity every figure in the paper plots.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import ClusterConfig
from ..des import AllOf, Process
from ..errors import SimulationError
from ..metrics.collectors import (
    ClientMetrics,
    RunMetrics,
    collect_client_metrics,
    collect_resilience_metrics,
)
from ..metrics.report import speedup
from ..workloads.ior import spawn_ior_processes
from .builder import Cluster, build_cluster

__all__ = ["Simulation", "run_experiment", "compare_policies", "PolicyComparison"]


class Simulation:
    """One experiment point: a cluster plus its IOR workload."""

    def __init__(
        self, config: ClusterConfig, spans: t.Any | None = None
    ) -> None:
        self.config = config
        self.cluster: Cluster = build_cluster(config, spans=spans)
        self._ran = False

    def run(self) -> RunMetrics:
        """Run the workload to completion; single-shot per instance."""
        if self._ran:
            raise SimulationError(
                "a Simulation is single-shot; build a new one to re-run"
            )
        self._ran = True
        cluster = self.cluster
        env = cluster.env
        workload = self.config.workload

        client_processes: list[list[Process]] = []
        all_processes: list[Process] = []
        for client in cluster.clients:
            procs = spawn_ior_processes(
                client,
                workload,
                pid_base=client.index * workload.n_processes,
                segment_base=client.index * workload.n_processes,
                rng=cluster.rngs.stream(f"migration_client{client.index}"),
            )
            client_processes.append(procs)
            all_processes.extend(procs)

        env.run(until=AllOf(env, all_processes))
        elapsed = env.now
        if elapsed <= 0:
            raise SimulationError("workload finished in zero simulated time")

        clients: list[ClientMetrics] = []
        total_bytes = 0
        for client, procs in zip(cluster.clients, client_processes):
            bytes_read = sum(int(proc.value) for proc in procs)
            total_bytes += bytes_read
            clients.append(collect_client_metrics(client, elapsed, bytes_read))
        resilience = (
            collect_resilience_metrics(cluster, elapsed, total_bytes)
            if cluster.injector is not None
            else None
        )
        if resilience is not None:
            cluster.metrics.ingest_dataclass("resilience", resilience)
        if cluster.spans is not None:
            cluster.spans.close_open_spans()
        return RunMetrics(
            policy=self.config.policy,
            elapsed=elapsed,
            clients=tuple(clients),
            resilience=resilience,
        )


def run_experiment(config: ClusterConfig) -> RunMetrics:
    """Build and run one experiment point."""
    return Simulation(config).run()


@dataclasses.dataclass(frozen=True)
class PolicyComparison:
    """Paired A/B result for one experiment point."""

    baseline: RunMetrics
    treatment: RunMetrics

    @property
    def bandwidth_speedup(self) -> float:
        """Fractional bandwidth gain of the treatment (the paper's %)."""
        return speedup(self.baseline.bandwidth, self.treatment.bandwidth)

    @property
    def miss_rate_reduction(self) -> float:
        """Fractional L2 miss-rate reduction (positive = treatment better)."""
        if self.baseline.l2_miss_rate <= 0:
            return 0.0
        return 1.0 - self.treatment.l2_miss_rate / self.baseline.l2_miss_rate

    @property
    def unhalted_reduction(self) -> float:
        """Fractional CPU_CLK_UNHALTED reduction."""
        if self.baseline.unhalted_cycles <= 0:
            return 0.0
        return 1.0 - self.treatment.unhalted_cycles / self.baseline.unhalted_cycles


def compare_policies(
    config: ClusterConfig,
    baseline: str = "irqbalance",
    treatment: str = "source_aware",
) -> PolicyComparison:
    """Run one point under two policies with identical seeds and compare."""
    base_metrics = run_experiment(config.with_policy(baseline))
    treat_metrics = run_experiment(config.with_policy(treatment))
    return PolicyComparison(baseline=base_metrics, treatment=treat_metrics)
