"""Tests for the trace-analysis engine (repro.obs.analysis).

The two headline guarantees:

* span-derived lifecycle breakdowns equal pinned known answers —
  **exact** equality, not approximate — and every complete strip record
  keeps stage order, retried strips included;
* the A/B diff on the Fig. 5 quick point attributes the irqbalance ->
  source_aware gap to the migration/softirq stages, reports zero
  migration edges for source_aware, and is byte-identical across runs.
"""

import json

import pytest

from repro import ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.obs import FlowEvent, Span, SpanRecorder
from repro.obs.analysis import (
    LIFECYCLE_STAGES,
    LatencyBreakdown,
    StageDelta,
    breakdown_from_spans,
    diff_traces,
    load_trace,
    model_from_recorder,
    render_diff,
    stage_durations,
    strip_stage_times,
)
from repro.obs.export import write_trace
from repro.obs.trace_cli import run_trace, trace_point_config
from repro.units import KiB, MiB


def small_config(**overrides):
    defaults = dict(
        n_servers=8,
        policy="irqbalance",
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


def is_ordered(record):
    return all(
        record[a] <= record[b]
        for a, b in zip(LIFECYCLE_STAGES, LIFECYCLE_STAGES[1:])
    )


#: Loss, reordering and option stripping on jumbo-frame segment trains:
#: retransmits, held-back segments and hint-less packets all show up in
#: the spans.
FAULTY = dict(
    network=NetworkConfig(mss=8960),
    faults=FaultPlan(
        loss_prob=0.05, reorder_prob=0.2, strip_option_prob=0.1, seed=7
    ),
)

#: Known answers per ``(policy, faulty)``: strip records, complete
#: records, strips in the breakdown, and per stage pair (count, mean,
#: p95, maximum, stdev) as ``float.hex``.  They were recorded from the
#: per-strip lifecycle tracer that stamped the model directly, before the
#: span tree became the only lifecycle record, and the per-segment
#: reference wire path gave them too, until it was deleted.
KNOWN = {
    ("irqbalance", False): (
        32,
        32,
        32,
        (
            ("issued", "served", 32, "0x1.3fab912b6964bp-9",
             "0x1.7cfaec380f414p-8", "0x1.38bfec725d0e5p-7",
             "0x1.6bf89ad49c40fp-9"),
            ("served", "received", 32, "0x1.350de25fb5bcfp-10",
             "0x1.13ab7b1f93fb6p-9", "0x1.2bf362fddf5a6p-9",
             "0x1.abee577d584e2p-12"),
            ("received", "handled", 32, "0x1.404bf462dad36p-15",
             "0x1.09335d4bfebb8p-12", "0x1.14f0d0bed1ee0p-12",
             "0x1.2a54ee0be8ca6p-14"),
            ("handled", "merged", 32, "0x1.59b2679875b11p-12",
             "0x1.8e0000f355060p-11", "0x1.bec1f1dd77594p-11",
             "0x1.d3a8abeea73e7p-13"),
        ),
    ),
    ("irqbalance", True): (
        32,
        32,
        32,
        (
            ("issued", "served", 32, "0x1.4025e0a78d1a0p-9",
             "0x1.a4b7ebee22934p-8", "0x1.38bfec725d0e5p-7",
             "0x1.6dd290416ef56p-9"),
            ("served", "received", 32, "0x1.8d08f9193e618p-10",
             "0x1.7931d961bf8e0p-9", "0x1.ef2bf840e034cp-9",
             "0x1.7bcb3b586212cp-11"),
            ("received", "handled", 32, "0x1.2cc9a11ad6bbcp-15",
             "0x1.d4de04f524000p-19", "0x1.153b232749facp-10",
             "0x1.86fd9a4e557c7p-13"),
            ("handled", "merged", 32, "0x1.aa0caf4b13d39p-12",
             "0x1.27110a9e39fa8p-10", "0x1.71ed25871d178p-10",
             "0x1.622e746bfd43bp-12"),
        ),
    ),
    ("source_aware", True): (
        32,
        32,
        32,
        (
            ("issued", "served", 32, "0x1.4025e0a78d1a0p-9",
             "0x1.a4b7ebee22934p-8", "0x1.38bfec725d0e5p-7",
             "0x1.6dd290416ef56p-9"),
            ("served", "received", 32, "0x1.8d08f9193e618p-10",
             "0x1.7931d961bf8e0p-9", "0x1.ef2bf840e034cp-9",
             "0x1.7bcb3b586212cp-11"),
            ("received", "handled", 32, "0x1.cfb58e374cf50p-18",
             "0x1.834bd9a65f800p-17", "0x1.00be26da9a0c0p-13",
             "0x1.62b07ca0c1437p-16"),
            ("handled", "merged", 32, "0x1.562e08bc00840p-15",
             "0x1.5640db09e6640p-13", "0x1.3431eb572d9e0p-12",
             "0x1.1455ff2d5d62dp-14"),
        ),
    ),
}


@pytest.fixture(
    scope="module",
    params=[
        ("irqbalance", False),
        ("irqbalance", True),
        ("source_aware", True),
    ],
    ids=lambda param: "-".join(
        ["fast_path"] + ([param[0], "faults"] if param[1] else [])
    ),
)
def reconciled(request):
    """(model, known answer) for one run, healthy and under a fault
    plan."""
    policy, faulty = request.param
    overrides = FAULTY if faulty else {}
    recorder, _sim = traced_run(small_config(policy=policy, **overrides))
    return model_from_recorder(recorder), KNOWN[(policy, faulty)]


class TestReconciliation:
    """Span-derived breakdowns == the pinned known answers, forever."""

    def test_breakdowns_are_exactly_equal(self, reconciled):
        model, (_records, _complete, strips_traced, rows) = reconciled
        known = LatencyBreakdown(
            deltas=tuple(
                StageDelta(a, b, count, *map(float.fromhex, stats))
                for a, b, count, *stats in rows
            ),
            strips_traced=strips_traced,
        )
        # Frozen-dataclass equality over every (count, mean, p95, max,
        # stdev) of every stage pair: any instrumentation drift fails
        # here.
        assert breakdown_from_spans(model) == known

    def test_all_five_stage_timestamps_derived(self, reconciled):
        model, (records, complete_strips, _traced, _rows) = reconciled
        times = strip_stage_times(model)
        assert len(times) == records
        complete = [
            record
            for record in times.values()
            if len(record) == len(LIFECYCLE_STAGES)
        ]
        assert len(complete) == complete_strips
        assert all(is_ordered(record) for record in complete)


class TestLifecycleStamps:
    """Every strip keeps all the stamps it earned, in pipeline order."""

    def test_final_write_ack_keeps_its_handled_stamp(self):
        # The run ends while the last ack's softirq still charges its
        # wake-up IPI; the handled stamp must not depend on that span
        # closing.
        config = small_config(
            policy="round_robin",
            workload=WorkloadConfig(
                n_processes=2,
                transfer_size=512 * KiB,
                file_size=1 * MiB,
                operation="write",
            ),
        )
        recorder, _sim = traced_run(config)
        times = strip_stage_times(model_from_recorder(recorder))
        assert len(times) == 32
        for key, record in times.items():
            assert set(record) == {"issued", "received", "handled"}, key
            assert record["issued"] <= record["received"] <= record["handled"]

    @pytest.mark.parametrize(
        "policy", ["irqbalance", "source_aware", "rdma_zerointr"]
    )
    def test_retried_strips_keep_stage_order(self, policy):
        # A failure window on server 0 forces strip retries; the late
        # duplicates' serves and arrivals must not leak into the records.
        config = small_config(
            n_servers=4,
            policy=policy,
            faults=FaultPlan(
                loss_prob=0.02,
                server_failure_windows=((0, 0.0, 2e-3),),
                strip_retry_timeout=5e-3,
                max_strip_retries=4,
            ),
        )
        recorder, _sim = traced_run(config)
        model = model_from_recorder(recorder)
        assert any(s.name == "retry" for s in model.spans)
        times = strip_stage_times(model)
        complete = [
            (key, record)
            for key, record in times.items()
            if len(record) == len(LIFECYCLE_STAGES)
        ]
        assert len(complete) == 32
        disordered = [key for key, record in complete if not is_ordered(record)]
        assert disordered == []

    def test_exported_zero_interrupt_run_keeps_every_stamp(self, tmp_path):
        # The live model indexes the recorder's own spans; the file model
        # rebuilds the same record type, with the live stamps to within
        # the microsecond round trip.  Under rdma_zerointr a strip is
        # handled the instant its wire span ends.  Read back from a file,
        # that end can land an ulp later, and it must still count as the
        # strip's arrival.
        recorder, _sim = traced_run(small_config(policy="rdma_zerointr"))
        model = model_from_recorder(recorder)
        assert len(model.spans) == len(recorder.spans)
        assert all(a is b for a, b in zip(model.spans, recorder.spans))
        live = strip_stage_times(model)
        out = tmp_path / "rdma.json"
        write_trace(recorder, str(out))
        loaded = load_trace(str(out))
        assert {type(span) for span in loaded.spans} == {Span}
        filed = strip_stage_times(loaded)
        assert filed.keys() == live.keys()
        for key, record in filed.items():
            assert record == pytest.approx(live[key], rel=1e-12), key
            assert record["received"] == record["handled"]
            assert is_ordered(record)


class TestStageDurations:
    def test_every_strip_folds_with_its_total(self, reconciled):
        model, (records, _complete, _traced, _rows) = reconciled
        folded = stage_durations(model)
        assert len(folded) == records
        assert all("total" in stages for stages in folded.values())
        # The pipeline stages every completed read strip must show.
        for stage in ("serve", "storage", "wire", "softirq", "merge"):
            assert sum(
                stages.get(stage, 0.0) for stages in folded.values()
            ) > 0.0, stage


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
        assert {type(flow) for flow in model.flows} == {FlowEvent}

    def test_not_a_trace_file_is_a_config_error(self, tmp_path):
        span = {
            "ph": "X",
            "name": "strip",
            "cat": "pfs",
            "ts": 1.0,
            "dur": 2.0,
            "pid": 100,
            "tid": 1,
            "args": {"sid": 1},
        }
        no_pid = {k: v for k, v in span.items() if k != "pid"}
        # payload -> index of the event the error must name (None: no event)
        malformed = {
            "no_events": ({}, None),
            "events_not_a_list": ({"traceEvents": {"0": span}}, None),
            "non_object_event": ({"traceEvents": [span, [span]]}, 1),
            "non_numeric_ts": ({"traceEvents": [{**span, "ts": "t0"}]}, 0),
            "no_pid": ({"traceEvents": [span, span, no_pid]}, 2),
        }
        for name, (payload, index) in malformed.items():
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(payload))
            with pytest.raises(ConfigError) as raised:
                load_trace(str(bad))
            message = str(raised.value)
            assert str(bad) in message and "\n" not in message, name
            if index is not None:
                assert f"traceEvents[{index}]" in message, name
        with pytest.raises(ConfigError):
            load_trace(str(tmp_path / "missing.json"))
        # Another producer's events (no integer sid) are skipped unread.
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert load_trace(str(foreign)).spans == ()


@pytest.fixture(scope="module")
def fig5_ab_models():
    """irqbalance and source_aware models of the Fig. 5 quick point."""
    config, _n = trace_point_config("fig5_bandwidth_3g", "quick", 0)
    models = {}
    for policy in ("irqbalance", "source_aware"):
        recorder, _sim = traced_run(config.with_policy(policy))
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
