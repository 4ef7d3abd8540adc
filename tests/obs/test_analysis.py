"""Tests for the trace-analysis engine (repro.obs.analysis).

The two headline guarantees:

* span-derived stage breakdowns reconcile with the lifecycle tracer's
  StageDeltas on both wire paths — **exact** equality, not approximate,
  because both feed the same ``breakdown_from_records`` arithmetic and
  the span instrumentation pins the same five timestamps;
* the A/B diff on the Fig. 5 quick point attributes the irqbalance ->
  source_aware gap to the migration/softirq stages, reports zero
  migration edges for source_aware, and is byte-identical across runs.
"""

import dataclasses
import json

import pytest

from repro import ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.obs import SpanRecorder
from repro.obs.analysis import (
    breakdown_from_spans,
    diff_traces,
    load_trace,
    model_from_recorder,
    render_diff,
    run_critical_path,
    stage_breakdown,
    strip_critical_path,
    strip_stage_times,
)
from repro.obs.trace_cli import run_trace, trace_point_config
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def monkeypatch_module():
    from _pytest.monkeypatch import MonkeyPatch

    patcher = MonkeyPatch()
    yield patcher
    patcher.undo()


def small_config(**overrides):
    defaults = dict(
        n_servers=8,
        policy="irqbalance",
        trace=True,  # lifecycle tracer on, for reconciliation
        workload=WorkloadConfig(
            n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
        ),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def traced_run(config):
    recorder = SpanRecorder()
    sim = Simulation(config, spans=recorder)
    sim.run()
    return recorder, sim


#: Loss, reordering and option stripping on jumbo-frame segment trains:
#: retransmits, held-back segments and hint-less packets all show up in
#: the spans.
FAULTY = dict(
    network=NetworkConfig(mss=8960),
    faults=FaultPlan(
        loss_prob=0.05, reorder_prob=0.2, strip_option_prob=0.1, seed=7
    ),
)


@pytest.fixture(
    scope="module",
    params=[
        ("fast_path", "irqbalance", False),
        ("slow_path", "irqbalance", False),
        ("fast_path", "irqbalance", True),
        ("slow_path", "irqbalance", True),
        ("fast_path", "source_aware", True),
        ("slow_path", "source_aware", True),
    ],
    ids=lambda param: "-".join(
        [param[0]] + ([param[1], "faults"] if param[2] else [])
    ),
)
def reconciled(request, monkeypatch_module):
    """(model, tracer breakdown) for one run on each wire path, healthy
    and under a fault plan."""
    wire_path, policy, faulty = request.param
    if wire_path == "slow_path":
        monkeypatch_module.setenv("REPRO_NO_WIRE_FASTPATH", "1")
    else:
        monkeypatch_module.delenv("REPRO_NO_WIRE_FASTPATH", raising=False)
    overrides = FAULTY if faulty else {}
    recorder, sim = traced_run(small_config(policy=policy, **overrides))
    tracer = sim.cluster.clients[0].pfs.tracer
    return model_from_recorder(recorder), tracer


class TestReconciliation:
    """Span-derived breakdowns == tracer StageDeltas, forever."""

    def test_breakdowns_are_exactly_equal(self, reconciled):
        model, tracer = reconciled
        from_spans = breakdown_from_spans(model)
        from_tracer = tracer.breakdown()
        # Frozen-dataclass equality over every (count, mean, p95, max,
        # stdev) of every stage pair: any instrumentation drift between
        # the span recorder and the lifecycle tracer fails here.
        assert from_spans.strips_traced == from_tracer.strips_traced
        assert from_spans.deltas == from_tracer.deltas

    def test_all_five_stage_timestamps_derived(self, reconciled):
        model, tracer = reconciled
        times = strip_stage_times(model)
        assert len(times) == len(tracer)
        complete = [
            record
            for record in times.values()
            if len(record) == 5
        ]
        assert len(complete) == tracer.complete_strips()
        for record in complete:
            assert (
                record["issued"]
                <= record["served"]
                <= record["received"]
                <= record["handled"]
                <= record["merged"]
            )


class TestStageBreakdown:
    def test_folds_every_strip_with_totals(self, reconciled):
        model, tracer = reconciled
        breakdown = stage_breakdown(model)
        assert breakdown.strips == len(tracer)
        total = breakdown.stat("total")
        assert total is not None and total.count == breakdown.strips
        # The pipeline stages every completed read strip must show.
        for stage in ("serve", "storage", "wire", "softirq", "merge"):
            stat = breakdown.stat(stage)
            assert stat is not None, stage
            assert stat.total > 0.0
            assert stat.mean <= stat.p99 or stat.count == 1
        payload = breakdown.to_dict()
        assert payload["strips"] == breakdown.strips
        assert payload["per_client"][0]["client"] == 0

    def test_per_client_partition_sums_to_run(self, reconciled):
        model, _tracer = reconciled
        breakdown = stage_breakdown(model)
        per_client_strips = sum(
            next(s.count for s in stats if s.stage == "total")
            for _client, stats in breakdown.per_client
        )
        assert per_client_strips == breakdown.strips


class TestCriticalPath:
    def test_run_path_is_deterministic_and_causal(self, reconciled):
        model, _tracer = reconciled
        path = run_critical_path(model)
        again = run_critical_path(model)
        assert path == again
        assert path.steps, "empty critical path"
        # Steps never start before their predecessor released them.
        for prev, step in zip(path.steps, path.steps[1:]):
            assert step.start >= prev.end - 1e-12
        assert path.elapsed >= path.busy - 1e-12
        assert path.wait >= 0.0
        # A read strip's chain ends at the consumer side: the merge, or
        # the bus transfer that feeds it (same end instant, higher sid).
        names = [step.name for step in path.steps]
        assert names[-1] in ("merge", "migration", "memory_fetch")
        assert "serve" in names or "storage" in names

    def test_strip_path_covers_wire_and_service(self, reconciled):
        model, _tracer = reconciled
        client, strip = sorted(model.strips)[0]
        path = strip_critical_path(model, client, strip)
        names = {step.name for step in path.steps}
        assert "wire" in names
        assert path.to_dict()["client"] == client

    def test_unknown_strip_is_a_config_error(self, reconciled):
        model, _tracer = reconciled
        with pytest.raises(ConfigError):
            strip_critical_path(model, 999, 999)


class TestModelRoundTrip:
    def test_file_model_matches_recorder_model(self, tmp_path):
        """Exported JSON reloads to the same strips, stages and flows."""
        out = tmp_path / "t.json"
        run_trace(
            "fig5_bandwidth_3g",
            scale="quick",
            out=str(out),
            echo=lambda _msg: None,
        )
        model = load_trace(str(out))
        assert model.meta["policy"] == "irqbalance"
        assert model.meta["experiment"] == "fig5_bandwidth_3g"
        assert model.strips
        # Flow span links survive the round trip: every migration edge
        # resolves to a strip.
        edges = model.migration_edges()
        assert edges and all(key is not None for key in edges)

    def test_not_a_trace_file_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ConfigError):
            load_trace(str(bad))
        with pytest.raises(ConfigError):
            load_trace(str(tmp_path / "missing.json"))


@pytest.fixture(scope="module")
def fig5_ab_models():
    """irqbalance and source_aware models of the Fig. 5 quick point."""
    config, _n = trace_point_config("fig5_bandwidth_3g", "quick", 0)
    models = {}
    for policy in ("irqbalance", "source_aware"):
        recorder, _sim = traced_run(
            dataclasses.replace(config.with_policy(policy), trace=False)
        )
        model = model_from_recorder(recorder)
        model.meta["policy"] = policy
        models[policy] = model
    return models


class TestTraceDiff:
    def test_attributes_gap_to_migration_and_softirq(self, fig5_ab_models):
        diff = diff_traces(
            fig5_ab_models["irqbalance"], fig5_ab_models["source_aware"]
        )
        assert diff.aligned == diff.strips_a == diff.strips_b > 0
        assert diff.only_a == diff.only_b == 0
        by_stage = {row.stage: row for row in diff.stages}
        # Source-aware deletes the migration stage outright and trims
        # the softirq stage; the mean strip total drops.
        assert by_stage["migration"].delta < 0.0
        assert by_stage["migration"].b_total == 0.0
        assert by_stage["softirq"].delta < 0.0
        assert diff.mean_total_b < diff.mean_total_a

    def test_sais_has_zero_migration_edges(self, fig5_ab_models):
        diff = diff_traces(
            fig5_ab_models["irqbalance"], fig5_ab_models["source_aware"]
        )
        assert diff.migration_edges_a > 0
        assert diff.migration_edges_b == 0
        assert diff.added_edges == ()
        assert len(diff.removed_edges) > 0

    def test_render_and_dict_are_deterministic(self, fig5_ab_models):
        a = fig5_ab_models["irqbalance"]
        b = fig5_ab_models["source_aware"]
        one = diff_traces(a, b, top=7)
        two = diff_traces(a, b, top=7)
        assert render_diff(one) == render_diff(two)
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )
        assert len(one.regressed) <= 7
        text = render_diff(one)
        assert "migration edges: A=" in text
        assert "B=0" in text

    def test_self_diff_is_all_zero(self, fig5_ab_models):
        a = fig5_ab_models["irqbalance"]
        diff = diff_traces(a, a)
        assert diff.regressed == ()
        assert all(row.delta == 0.0 for row in diff.stages)
        assert diff.added_edges == () and diff.removed_edges == ()
        assert "no aligned span moved" in render_diff(diff)
