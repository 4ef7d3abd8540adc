"""Bandwidth is a steady-state rate: run length must not change the story.

This is what justifies scaling the paper's 10 GB reads down to tens of
megabytes at the default scale (DESIGN.md §5).
"""

import pytest

from repro import ClusterConfig, WorkloadConfig, compare_policies, run_experiment
from repro.units import MiB


def config(file_size, policy="irqbalance"):
    # The standard figure workload (8 pinned processes); per-process file
    # sizes of 8 MiB and up are past the synchronized-start transient.
    return ClusterConfig(
        n_servers=16,
        policy=policy,
        workload=WorkloadConfig(
            n_processes=8, transfer_size=1 * MiB, file_size=file_size
        ),
    )


def test_bandwidth_stable_across_run_lengths():
    short = run_experiment(config(8 * MiB))
    long = run_experiment(config(32 * MiB))
    assert short.bandwidth == pytest.approx(long.bandwidth, rel=0.15)


def test_speedup_stable_across_run_lengths():
    short = compare_policies(config(8 * MiB))
    long = compare_policies(config(32 * MiB))
    assert short.bandwidth_speedup == pytest.approx(
        long.bandwidth_speedup, abs=0.05
    )


def test_miss_rate_stable_across_run_lengths():
    short = run_experiment(config(8 * MiB))
    long = run_experiment(config(32 * MiB))
    assert short.l2_miss_rate == pytest.approx(long.l2_miss_rate, rel=0.10)


def test_longer_runs_move_more_bytes_proportionally():
    short = run_experiment(config(8 * MiB))
    long = run_experiment(config(32 * MiB))
    assert long.bytes_read == 4 * short.bytes_read
    assert long.elapsed == pytest.approx(4 * short.elapsed, rel=0.20)
