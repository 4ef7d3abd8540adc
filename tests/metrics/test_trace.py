"""Tests for per-strip lifecycle breakdowns read off span traces."""

import pytest

from repro import ClusterConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.obs import SpanRecorder
from repro.obs.analysis import (
    LIFECYCLE_STAGES,
    breakdown_from_records,
    breakdown_from_spans,
    model_from_recorder,
    strip_stage_times,
)
from repro.units import KiB, MiB


def stamped(scale=1.0):
    """One complete record, one time unit (times ``scale``) per stage."""
    return {stage: float(i) * scale for i, stage in enumerate(LIFECYCLE_STAGES)}


def span_model(config):
    recorder = SpanRecorder()
    Simulation(config, spans=recorder).run()
    return model_from_recorder(recorder)


class TestTracerUnit:
    """The stage arithmetic of ``breakdown_from_records``."""

    def test_breakdown_requires_complete_strips(self):
        with pytest.raises(SimulationError):
            breakdown_from_records([{"issued": 0.0}])

    def test_breakdown_deltas(self):
        breakdown = breakdown_from_records([stamped()])
        assert breakdown.strips_traced == 1
        assert breakdown.mean_total == pytest.approx(len(LIFECYCLE_STAGES) - 1)
        assert breakdown.mean_of("issued", "served") == pytest.approx(1.0)

    def test_incomplete_strips_excluded(self):
        never_completes = {"issued": 0.0}
        breakdown = breakdown_from_records([stamped(), never_completes])
        assert breakdown.strips_traced == 1

    def test_single_strip_breakdown_has_zero_stdev(self):
        # One traced strip is a legitimate quick-scale configuration;
        # statistics.stdev would raise StatisticsError on n=1.
        breakdown = breakdown_from_records([stamped()])
        assert breakdown.strips_traced == 1
        for delta in breakdown.deltas:
            assert delta.stdev == 0.0

    def test_stdev_over_multiple_strips(self):
        breakdown = breakdown_from_records([stamped(1.0), stamped(3.0)])
        for delta in breakdown.deltas:
            # deltas are 1.0 and 3.0 -> sample stdev sqrt(2).
            assert delta.stdev == pytest.approx(2.0**0.5)

    def test_unknown_delta_query(self):
        with pytest.raises(SimulationError):
            breakdown_from_records([stamped()]).mean_of("merged", "issued")


class TestTracerIntegration:
    """Lifecycle records of real runs, read off their span trees."""

    @pytest.fixture(scope="class")
    def traced(self):
        config = ClusterConfig(
            n_servers=8,
            workload=WorkloadConfig(
                n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
            ),
        )
        return config, span_model(config)

    def test_every_strip_fully_traced(self, traced):
        config, model = traced
        workload = config.workload
        expected = (
            workload.n_processes * workload.file_size // config.strip_size
        )
        complete = [
            record
            for record in strip_stage_times(model).values()
            if len(record) == len(LIFECYCLE_STAGES)
        ]
        assert len(complete) == expected

    def test_stage_order_monotone(self, traced):
        _config, model = traced
        for delta in breakdown_from_spans(model).deltas:
            assert delta.mean >= 0
            assert delta.maximum >= delta.p95 >= 0

    def test_labels_match_policy(self, traced):
        # irqbalance: most strips are consumed remotely.  The consume
        # location rides the merge span.
        _config, model = traced
        labels = [s.args["location"] for s in model.spans if s.name == "merge"]
        assert labels.count("remote") > labels.count("local")

    def test_tracing_off_by_default(self):
        sim = Simulation(
            ClusterConfig(
                n_servers=8,
                workload=WorkloadConfig(
                    n_processes=1, transfer_size=256 * KiB, file_size=256 * KiB
                ),
            )
        )
        sim.run()
        assert sim.cluster.spans is None

    def test_trace_with_fault_plan_retries_does_not_crash(self):
        # A fault plan whose failure window forces strip retries: each
        # retry leaves a marker, and the retried strips still break down.
        model = span_model(
            ClusterConfig(
                n_servers=4,
                faults=FaultPlan(
                    server_failure_windows=((0, 0.0, 2e-3),),
                    strip_retry_timeout=5e-3,
                    max_strip_retries=4,
                ),
                workload=WorkloadConfig(
                    n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
                ),
            )
        )
        assert sum(1 for s in model.spans if s.name == "retry") > 0
        assert breakdown_from_spans(model).strips_traced > 0

    def test_sais_merge_delta_smaller_than_irqbalance(self):
        def traced_breakdown(policy):
            config = ClusterConfig(
                n_servers=16,
                policy=policy,
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=1 * MiB, file_size=4 * MiB
                ),
            )
            return breakdown_from_spans(span_model(config))

        irq = traced_breakdown("irqbalance")
        sais = traced_breakdown("source_aware")
        # The handled->merged delta carries TM: SAIs must be far cheaper.
        assert sais.mean_of("handled", "merged") < 0.5 * irq.mean_of(
            "handled", "merged"
        )
