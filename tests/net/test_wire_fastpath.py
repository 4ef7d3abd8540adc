"""A/B equivalence of the coalesced wire fast path.

The fast path replaces ~11 calendar events per segment with 3 by computing
switch-fabric and NIC-wire departures analytically (see
``repro.net.fastpath``).  It must be *invisible*: every run-level metric —
bandwidths, interrupt counts, cache migrations, per-core distributions,
fault and recovery counters — must be byte-identical to the per-segment
reference path, which stays reachable via the ``REPRO_NO_WIRE_FASTPATH``
environment variable.  That holds on a healthy fabric and under every
fault plan.
"""

import dataclasses

import pytest

from repro import ClientConfig, ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.experiments.base import get_grid_experiment
from repro.faults import FaultPlan
from repro.units import KiB, MiB


def _run(config, monkeypatch, *, fast):
    if fast:
        monkeypatch.delenv("REPRO_NO_WIRE_FASTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_WIRE_FASTPATH", "1")
    sim = Simulation(config)
    metrics = sim.run()
    return sim, dataclasses.asdict(metrics)


def _assert_equivalent(config, monkeypatch):
    fast_sim, fast = _run(config, monkeypatch, fast=True)
    slow_sim, slow = _run(config, monkeypatch, fast=False)
    assert fast == slow
    # The wiring itself must differ: fast runs install the fast path.
    assert fast_sim.cluster.servers[0].fastpath is not None
    assert slow_sim.cluster.servers[0].fastpath is None
    # And it must actually be cheaper, not just equivalent.
    assert (
        fast_sim.cluster.env.events_processed
        < slow_sim.cluster.env.events_processed
    )
    return fast


class TestWireFastPathEquivalence:
    def test_plain_read(self, monkeypatch):
        _assert_equivalent(
            ClusterConfig(
                n_servers=8,
                workload=WorkloadConfig(
                    n_processes=2, transfer_size=256 * KiB, file_size=1 * MiB
                ),
            ),
            monkeypatch,
        )

    def test_napi_read(self, monkeypatch):
        _assert_equivalent(
            ClusterConfig(
                n_servers=8,
                client=ClientConfig(napi=True),
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=256 * KiB, file_size=1 * MiB
                ),
            ),
            monkeypatch,
        )

    def test_irqbalance_read(self, monkeypatch):
        _assert_equivalent(
            ClusterConfig(
                n_servers=8,
                policy="irqbalance",
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=256 * KiB, file_size=1 * MiB
                ),
            ),
            monkeypatch,
        )

    def test_write_path(self, monkeypatch):
        _assert_equivalent(
            ClusterConfig(
                n_servers=8,
                workload=WorkloadConfig(
                    n_processes=2,
                    transfer_size=256 * KiB,
                    file_size=1 * MiB,
                    operation="write",
                ),
            ),
            monkeypatch,
        )

    def test_event_reduction_is_large_on_reads(self, monkeypatch):
        config = ClusterConfig(
            n_servers=8,
            workload=WorkloadConfig(
                n_processes=4, transfer_size=512 * KiB, file_size=2 * MiB
            ),
        )
        fast_sim, _ = _run(config, monkeypatch, fast=True)
        slow_sim, _ = _run(config, monkeypatch, fast=False)
        # The full ≥3× bar is vs the committed pre-PR baseline (which also
        # lacked the DES-level cuts shared by both modes here); it lives in
        # the bench comparison.  The wire coalescing alone must still buy a
        # solid margin over the per-segment slow loop.
        assert (
            slow_sim.cluster.env.events_processed
            >= 1.4 * fast_sim.cluster.env.events_processed
        )


def _small(**overrides):
    defaults = dict(
        n_servers=4,
        workload=WorkloadConfig(
            n_processes=2, transfer_size=256 * KiB, file_size=512 * KiB
        ),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestFaultPlanEquivalence:
    """Every hazard of a fault plan runs on the fast path, invisibly.

    Each case also checks that its hazard actually fired, so a plan that
    silently stopped injecting cannot pass as "equivalent".
    """

    def test_loss_unsegmented(self, monkeypatch):
        res = _assert_equivalent(
            _small(faults=FaultPlan(loss_prob=0.2, seed=7)), monkeypatch
        )["resilience"]
        assert res["retransmits"] > 0

    def test_resilience_loss_sweep_cell(self, monkeypatch):
        # The p=0.05 cell of the quick loss sweep: loss, option stripping
        # and reordering together on jumbo-frame segment trains.
        config = get_grid_experiment("resilience_loss_sweep").grid("quick")[-1]
        assert config.faults.loss_prob == 0.05
        res = _assert_equivalent(
            config.with_policy("source_aware"), monkeypatch
        )["resilience"]
        assert res["retransmits"] > 0
        assert res["options_stripped"] > 0
        assert res["packets_delayed"] > 0

    def test_reorder_at_mss_1460(self, monkeypatch):
        # Delayed segments land behind later-relayed ones: the fast path
        # holds them back until their arrival instant.
        res = _assert_equivalent(
            _small(
                network=NetworkConfig(mss=1460),
                faults=FaultPlan(reorder_prob=0.2, seed=7),
            ),
            monkeypatch,
        )["resilience"]
        assert res["packets_delayed"] > 0
        assert res["reorder_events"] > 0

    def test_strip_and_corrupt_under_source_aware(self, monkeypatch):
        res = _assert_equivalent(
            _small(
                policy="source_aware",
                network=NetworkConfig(mss=8960),
                faults=FaultPlan(
                    strip_option_prob=0.1, corrupt_prob=0.1, seed=7
                ),
            ),
            monkeypatch,
        )["resilience"]
        assert res["options_stripped"] > 0
        assert res["options_corrupted"] > 0
        assert res["fallback_steered"] > 0

    def test_straggler_and_failure_window(self, monkeypatch):
        res = _assert_equivalent(
            _small(
                faults=FaultPlan(
                    straggler_servers=(1,),
                    straggler_slowdown=8.0,
                    server_failure_windows=((2, 0.0, 2e-3),),
                    strip_retry_timeout=5e-3,
                    max_strip_retries=5,
                    seed=7,
                )
            ),
            monkeypatch,
        )["resilience"]
        assert res["requests_dropped"] > 0
        assert res["strip_retries"] > 0
        assert res["duplicate_strips"] > 0

    def test_write_with_loss_and_reorder(self, monkeypatch):
        res = _assert_equivalent(
            _small(
                network=NetworkConfig(mss=1460),
                workload=WorkloadConfig(
                    n_processes=2,
                    transfer_size=256 * KiB,
                    file_size=512 * KiB,
                    operation="write",
                ),
                faults=FaultPlan(loss_prob=0.2, reorder_prob=0.2, seed=7),
            ),
            monkeypatch,
        )["resilience"]
        assert res["retransmits"] > 0
        assert res["packets_delayed"] > 0

    def test_napi_with_reorder(self, monkeypatch):
        res = _assert_equivalent(
            _small(
                client=ClientConfig(napi=True),
                network=NetworkConfig(mss=1460),
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=256 * KiB, file_size=512 * KiB
                ),
                faults=FaultPlan(reorder_prob=0.2, seed=7),
            ),
            monkeypatch,
        )["resilience"]
        assert res["packets_delayed"] > 0
        assert res["reorder_events"] > 0
