"""The zero-cost-when-disabled and free-when-enabled guarantees.

Tracing must be invisible to the simulation: a :class:`SpanRecorder` is
pure bookkeeping inside callbacks that already run, never a source of
calendar events.  So a traced run must reproduce the untraced run's
``events_processed`` and every measured metric *exactly* — and with
tracing disabled (the default — nothing on the experiment path ever
constructs a recorder), the committed goldens and the pinned event counts
cannot move.  The golden snapshots themselves are asserted by
``tests/experiments/test_golden_snapshots.py``; here we pin the exact
event count and end time of nine points, one per simulator regime, and
prove the enabled/disabled A/B identity.
"""

import json

import pytest

from repro import ClientConfig, ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.faults import FaultPlan
from repro.obs import SpanRecorder
from repro.units import KiB, MiB


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


def _point(
    mss,
    *,
    policy="source_aware",
    napi=False,
    operation="read",
    n_servers=8,
    n_clients=1,
    n_processes=4,
    transfer=512 * KiB,
    file_size=2 * MiB,
):
    """A 3-Gigabit-client point, by default 8 servers reading 2 MiB."""
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=n_clients,
        client=ClientConfig(nic_ports=3, napi=napi),
        network=NetworkConfig(mss=mss),
        workload=WorkloadConfig(
            n_processes=n_processes,
            transfer_size=transfer,
            file_size=file_size,
            operation=operation,
        ),
        policy=policy,
    )


def _pinned_points():
    """``(name, config, events_processed, metrics.elapsed.hex())`` rows."""
    from repro.scenarios import BUILTIN_SPECS, generate_scenarios

    scenario = generate_scenarios(
        BUILTIN_SPECS["heterogeneous"], 1, seed=3, scale="quick"
    )[0].config
    return (
        # MSS 1500: every 64 KiB strip is a ~44-segment train.
        ("mtu1500_read", _point(1500), 23_488, "0x1.bbaea50ab6799p-5"),
        # Jumbo frames: ~8 segments per strip.
        ("jumbo9k_read", _point(8960), 5_019, "0x1.bc707a54b52adp-5"),
        # mss=None: one interrupt per strip, as in the Fig. 5-11 sweeps.
        ("strip_train_read", _point(None), 1_360, "0x1.ca070286fbd28p-5"),
        (
            "micro_read",
            _point(
                1500, n_processes=2, transfer=128 * KiB, file_size=256 * KiB
            ),
            1_478,
            "0x1.bb078349d546fp-7",
        ),
        # A generator-drawn point: drift in the scenario generator's
        # draws changes its config and so its counts.
        ("scenario_mixed", scenario, 503, "0x1.33ba805be73f9p-7"),
        # Four clients fan in from 16 servers: client-side NIC and
        # softirq work dominates.
        (
            "fanin_multiclient",
            _point(1500, n_servers=16, n_clients=4, file_size=4 * MiB),
            187_679,
            "0x1.6a9b4e336f474p-3",
        ),
        (
            "irqbalance_jumbo9k",
            _point(8960, policy="irqbalance"),
            5_323,
            "0x1.c550df5cbe474p-5",
        ),
        (
            "napi_mtu1500",
            _point(1500, napi=True),
            23_488,
            "0x1.bbb7484020d43p-5",
        ),
        (
            "write_path",
            _point(None, operation="write"),
            1_771,
            "0x1.a6dedcf3cf2d0p-6",
        ),
    )


class TestCommittedBenchCounts:
    def test_bench_event_counts_match_committed_baseline(self):
        """Every pinned point dispatches exactly its known number of
        events and ends at exactly its known virtual time, so any change
        to an event schedule fails here on every Python.  Wall time is
        judged by perfbench's repeated runs, not by this test."""
        drifted = []
        for name, config, events, elapsed in _pinned_points():
            sim = Simulation(config)
            got = (sim.run().elapsed.hex(), sim.cluster.env.events_processed)
            if got != (elapsed, events):
                drifted.append(f"{name}: got {got}, want {(elapsed, events)}")
        assert not drifted, "\n".join(drifted)


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
