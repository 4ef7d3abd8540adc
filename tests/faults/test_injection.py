"""End-to-end fault injection: every hazard fires, every run recovers.

Each test runs a small cluster under one fault class and checks both
sides of the contract: the hazard actually happened (injector counters)
and the workload still delivered every byte (graceful degradation).
"""

import pytest

from repro.config import ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.builder import build_cluster
from repro.cluster.simulation import run_experiment
from repro.errors import ConfigError, StripRetryExhaustedError
from repro.faults import FaultPlan
from repro.units import KiB, MiB


def small_config(faults, policy="source_aware", mss=None, n_servers=4):
    return ClusterConfig(
        n_servers=n_servers,
        policy=policy,
        network=NetworkConfig(mss=mss),
        workload=WorkloadConfig(
            n_processes=2, transfer_size=256 * KiB, file_size=1 * MiB
        ),
        faults=faults,
    )


def expected_bytes(config):
    return (
        config.workload.n_processes * config.workload.file_size
    )


class TestPacketLoss:
    def test_loss_recovers_via_retransmission(self):
        plan = FaultPlan(
            loss_prob=0.2, seed=3, retransmit_timeout=100e-6,
        )
        metrics = run_experiment(small_config(plan, mss=8960))
        res = metrics.resilience
        assert res is not None
        assert res.packets_dropped > 0
        assert res.retransmits == res.packets_dropped
        assert metrics.bytes_read == expected_bytes(small_config(plan))
        # Retransmitted attempts crossed the wire: raw > goodput.
        assert 0 < res.goodput_ratio < 1
        assert res.raw_bandwidth > res.goodput

    def test_loss_slows_the_run_down(self):
        plan = FaultPlan(
            loss_prob=0.3, seed=3, retransmit_timeout=100e-6,
        )
        clean = run_experiment(small_config(None, mss=8960))
        lossy = run_experiment(small_config(plan, mss=8960))
        assert lossy.elapsed > clean.elapsed


class TestOptionStripping:
    def test_stripped_hints_fall_back_instead_of_failing(self):
        plan = FaultPlan(strip_option_prob=0.5, seed=5)
        metrics = run_experiment(small_config(plan))
        res = metrics.resilience
        assert res.options_stripped > 0
        # The degraded fallback steered the blinded interrupts...
        assert res.fallback_steered > 0
        assert res.unhinted_packets > 0
        # ...and every byte still arrived.
        assert metrics.bytes_read == expected_bytes(small_config(plan))

    def test_baseline_policy_unaffected_by_stripping(self):
        # irqbalance never reads the options: stripping them all changes
        # nothing about its steering, only the strip counter moves.
        plan = FaultPlan(strip_option_prob=0.5, seed=5)
        clean = run_experiment(small_config(None, policy="irqbalance"))
        stripped = run_experiment(small_config(plan, policy="irqbalance"))
        assert stripped.elapsed == clean.elapsed
        assert stripped.bandwidth == clean.bandwidth


class TestOptionCorruption:
    def test_corrupted_options_tolerated_and_counted(self):
        plan = FaultPlan(corrupt_prob=0.8, seed=11)
        metrics = run_experiment(small_config(plan))
        res = metrics.resilience
        assert res.options_corrupted > 0
        # Most garbled octets are undecodable; the driver counts and
        # drops them rather than crashing or steering blind.
        assert res.parse_errors > 0
        assert metrics.bytes_read == expected_bytes(small_config(plan))


class TestReordering:
    def test_reordered_segments_buffered_and_reassembled(self):
        plan = FaultPlan(
            reorder_prob=0.5, reorder_window=500e-6, seed=7,
        )
        config = small_config(plan, mss=8960)
        metrics = run_experiment(config)
        res = metrics.resilience
        assert res.packets_delayed > 0
        # Held-back segments were overtaken by their successors; the
        # tolerant stream absorbed it instead of raising ProtocolError.
        assert res.reorder_events > 0
        assert metrics.bytes_read == expected_bytes(config)


class TestStragglersAndFailures:
    def test_straggler_stretches_the_run(self):
        plan = FaultPlan(straggler_servers=(0,), straggler_slowdown=8.0)
        clean = run_experiment(small_config(None))
        slow = run_experiment(small_config(plan))
        assert slow.elapsed > clean.elapsed * 1.5
        assert slow.bytes_read == clean.bytes_read

    def test_transient_failure_recovered_by_retry(self):
        plan = FaultPlan(
            server_failure_windows=((0, 0.0, 2e-3),),
            strip_retry_timeout=5e-3,
            max_strip_retries=4,
        )
        config = small_config(plan)
        metrics = run_experiment(config)
        res = metrics.resilience
        assert res.requests_dropped > 0
        assert res.strip_retries > 0
        assert metrics.bytes_read == expected_bytes(config)

    def test_retry_exhaustion_raises_typed_error(self):
        # Server 0 is dead for the entire run: the watchdog's capped
        # retries all vanish and the run fails loudly, not silently.
        plan = FaultPlan(
            server_failure_windows=((0, 0.0, 1e9),),
            strip_retry_timeout=1e-3,
            max_strip_retries=2,
        )
        with pytest.raises(StripRetryExhaustedError) as excinfo:
            run_experiment(small_config(plan))
        assert "after 2 retries" in str(excinfo.value)


class TestZeroCostWhenDisabled:
    def test_null_plan_builds_no_injector(self):
        cluster = build_cluster(small_config(FaultPlan()))
        assert cluster.injector is None

    def test_null_plan_metrics_identical_to_no_plan(self):
        # The acceptance bar: all probabilities zero => byte-identical
        # behaviour to a config with no fault plan at all.
        null = run_experiment(small_config(FaultPlan(), mss=8960))
        none = run_experiment(small_config(None, mss=8960))
        assert null == none
        assert null.resilience is None

    def test_plan_beyond_cluster_size_rejected(self):
        # Checked when the config is built, so a grid fails while it is
        # planned; a null plan is never checked, as it injects nothing.
        plan = FaultPlan(straggler_servers=(99,), straggler_slowdown=2.0)
        with pytest.raises(ConfigError) as excinfo:
            small_config(plan, n_servers=4)
        assert str(excinfo.value) == (
            "fault plan targets server 99 but the cluster has only 4 servers"
        )
        window = FaultPlan(server_failure_windows=((4, 0.0, 1e-3),))
        with pytest.raises(ConfigError, match="targets server 4 "):
            small_config(window, n_servers=4)
        small_config(FaultPlan(straggler_servers=(99,)), n_servers=4)


class TestDeterminism:
    def test_same_plan_same_bits(self):
        plan = FaultPlan(
            loss_prob=0.2, strip_option_prob=0.2, reorder_prob=0.2,
            seed=13, retransmit_timeout=100e-6,
        )
        first = run_experiment(small_config(plan, mss=8960))
        second = run_experiment(small_config(plan, mss=8960))
        assert first == second

    def test_fault_seed_changes_the_pattern(self):
        def run(seed):
            plan = FaultPlan(
                loss_prob=0.2, seed=seed, retransmit_timeout=100e-6
            )
            return run_experiment(small_config(plan, mss=8960))

        a, b = run(1), run(2)
        assert a.resilience.packets_dropped != b.resilience.packets_dropped
