"""The zero-cost-when-disabled and free-when-enabled guarantees.

Tracing must be invisible to the simulation: a :class:`SpanRecorder` is
pure bookkeeping inside callbacks that already run, never a source of
calendar events.  So a traced run must reproduce the untraced run's
``events_processed`` and every measured metric *exactly* — and with
tracing disabled (the default — nothing in the experiment/bench path ever
constructs a recorder), the committed goldens and bench event counts
cannot move.  The golden snapshots themselves are asserted by
``tests/experiments/test_golden_snapshots.py``; here we pin the committed
bench event counts and prove the enabled/disabled A/B identity.
"""

import json
from pathlib import Path

import pytest

from repro import ClusterConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.faults import FaultPlan
from repro.obs import SpanRecorder
from repro.units import KiB, MiB

REPO_ROOT = Path(__file__).resolve().parents[2]


def _configs():
    base = WorkloadConfig(
        n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
    )
    return {
        "fast_path": ClusterConfig(n_servers=8, workload=base),
        "irqbalance": ClusterConfig(
            n_servers=8, policy="irqbalance", workload=base
        ),
        "faulty_slow_path": ClusterConfig(
            n_servers=4,
            faults=FaultPlan(loss_prob=0.05),
            workload=base,
        ),
        "write": ClusterConfig(
            n_servers=8,
            workload=WorkloadConfig(
                n_processes=2,
                transfer_size=512 * KiB,
                file_size=1 * MiB,
                operation="write",
            ),
        ),
    }


def _fingerprint(metrics, events):
    return {
        "events": events,
        "elapsed": metrics.elapsed,
        "bandwidth": metrics.bandwidth,
        "l2_miss_rate": metrics.l2_miss_rate,
        "unhalted": metrics.unhalted_cycles,
    }


class TestEnabledDisabledIdentity:
    @pytest.mark.parametrize("name", sorted(_configs()))
    def test_traced_run_is_bit_identical_to_untraced(self, name):
        config = _configs()[name]

        plain_sim = Simulation(config)
        plain = _fingerprint(
            plain_sim.run(), plain_sim.cluster.env.events_processed
        )

        recorder = SpanRecorder()
        traced_sim = Simulation(config, spans=recorder)
        traced = _fingerprint(
            traced_sim.run(), traced_sim.cluster.env.events_processed
        )

        assert traced == plain  # exact — no approx
        assert recorder.spans, "traced run recorded nothing"

    def test_traced_trace_is_deterministic(self):
        from repro.obs.export import to_trace_events

        config = _configs()["irqbalance"]

        def run():
            recorder = SpanRecorder()
            Simulation(config, spans=recorder).run()
            return to_trace_events(recorder)

        a = json.dumps(run(), sort_keys=True)
        b = json.dumps(run(), sort_keys=True)
        assert a == b


class TestCommittedBenchCounts:
    def test_bench_event_counts_match_committed_baseline(self):
        """Re-run the quick bench suite and compare event counts against
        the newest committed BENCH_*.json — the byte-identity oracle that
        proves this PR's instrumentation changed no event schedule."""
        from repro.bench import bench_entries

        baselines = {}
        newest = None
        for path in REPO_ROOT.glob("BENCH_*.json"):
            payload = json.loads(path.read_text())
            key = str(payload.get("created", ""))
            if newest is None or key > newest:
                newest = key
                baselines = {
                    e["name"]: e["events_processed"]
                    for e in payload["entries"]
                }
        if not baselines:
            pytest.skip("no committed BENCH_*.json to compare against")

        for entry in bench_entries("quick"):
            if entry.name not in baselines:
                continue
            sim = Simulation(entry.config)
            sim.run()
            assert (
                sim.cluster.env.events_processed == baselines[entry.name]
            ), f"{entry.name} event count drifted from committed baseline"


class TestNothingConstructsARecorderByDefault:
    def test_cluster_spans_none_without_opt_in(self):
        config = _configs()["fast_path"]
        sim = Simulation(config)
        assert sim.cluster.spans is None

    def test_experiment_path_never_traces(self):
        # The experiment registry's run path has no spans parameter at
        # all: grep-level guarantee that goldens can't see the recorder.
        import inspect

        from repro.experiments.base import GridExperiment

        signature = inspect.signature(GridExperiment.run_serial)
        assert "spans" not in signature.parameters
