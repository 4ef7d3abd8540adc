"""Well-formedness of the causal span tree over real simulated runs.

The acceptance bar for the tracing tentpole: a traced run reconstructs
each strip's full lifecycle — issue -> serve -> switch -> NIC wire -> IRQ
-> softirq (-> migration) -> merge — as a rooted tree with IRQ-placement
and migration flow edges, on a healthy fabric AND under an active fault
plan.
"""

import pytest

from repro import ClusterConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.faults import FaultPlan
from repro.obs import SpanRecorder
from repro.units import KiB, MiB

#: Spans every completed read strip must have on its subtree.
LIFECYCLE = ("serve", "storage", "switch", "wire", "irq", "softirq", "merge")


def traced_run(config):
    recorder = SpanRecorder()
    sim = Simulation(config, spans=recorder)
    sim.run()
    return recorder, sim


def base_config(**overrides):
    defaults = dict(
        n_servers=8,
        policy="irqbalance",  # guarantees remote consumes -> migrations
        workload=WorkloadConfig(
            n_processes=2, transfer_size=512 * KiB, file_size=1 * MiB
        ),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture(
    scope="module",
    params=["fast_path", "faulty"],
)
def traced(request):
    if request.param == "faulty":
        # Loss and a failure window add retransmits and strip retries.
        config = base_config(
            n_servers=4,
            faults=FaultPlan(
                loss_prob=0.02,
                server_failure_windows=((0, 0.0, 2e-3),),
                strip_retry_timeout=5e-3,
                max_strip_retries=4,
            ),
        )
    else:
        config = base_config()
    return traced_run(config)


class TestTreeShape:
    def test_all_spans_closed(self, traced):
        recorder, _sim = traced
        assert recorder.open_spans == 0
        for span in recorder.spans:
            assert span.end is not None
            assert span.end >= span.start

    def test_parents_exist_and_precede_children(self, traced):
        recorder, sim = traced
        by_id = {s.sid: s for s in recorder.spans}
        fault_free = sim.cluster.injector is None
        for span in recorder.spans:
            if span.parent is None:
                continue
            parent = by_id.get(span.parent)
            assert parent is not None, f"span {span.sid} orphaned"
            assert parent.start <= span.start + 1e-12
            if fault_free:
                # Under a fault plan a duplicate serve of a retried strip
                # can legitimately outlive the strip span (which closes
                # when the first surviving copy merges); fault-free runs
                # must nest exactly.
                assert parent.end >= span.end - 1e-12

    def test_roots_are_requests(self, traced):
        recorder, _sim = traced
        roots = {s.name for s in recorder.spans if s.parent is None}
        assert roots <= {"read", "write"}

    def test_every_strip_subtree_has_the_full_lifecycle(self, traced):
        recorder, _sim = traced
        children = {}
        for span in recorder.spans:
            children.setdefault(span.parent, []).append(span)

        strips = [s for s in recorder.spans if s.name == "strip"]
        assert strips
        for strip in strips:
            seen = set()
            stack = list(children.get(strip.sid, ()))
            while stack:
                node = stack.pop()
                seen.add(node.name)
                stack.extend(children.get(node.sid, ()))
            missing = set(LIFECYCLE) - seen
            assert not missing, (
                f"strip {strip.args.get('strip')} missing {sorted(missing)}"
            )

    def test_span_counts_line_up(self, traced):
        recorder, sim = traced
        n_strips = sum(
            1 for s in recorder.spans if s.name == "strip"
        )
        expected = sum(
            sim.config.workload.n_processes
            * sim.config.workload.file_size
            // sim.config.strip_size
            for _ in range(1)
        )
        assert n_strips == expected
        assert (
            sum(1 for s in recorder.spans if s.name == "merge") == n_strips
        )


class TestFlows:
    def test_no_dangling_flows(self, traced):
        recorder, _sim = traced
        assert all(f.dst_span is not None for f in recorder.flows)

    def test_irq_placement_edges_join_wire_to_softirq(self, traced):
        recorder, _sim = traced
        by_id = {s.sid: s for s in recorder.spans}
        placements = [f for f in recorder.flows if f.name == "irq-placement"]
        assert placements
        for flow in placements:
            assert by_id[flow.src_span].name == "wire"
            assert by_id[flow.dst_span].name == "softirq"
            assert flow.dst_ts >= flow.src_ts

    def test_migration_edges_join_softirq_to_merge(self, traced):
        recorder, _sim = traced
        by_id = {s.sid: s for s in recorder.spans}
        migrations = [f for f in recorder.flows if f.name == "migration"]
        assert migrations, "irqbalance run must migrate strips"
        for flow in migrations:
            src, dst = by_id[flow.src_span], by_id[flow.dst_span]
            assert src.name == "softirq"
            assert dst.name == "merge"
            # A migration crosses cores by definition.
            assert src.track != dst.track


class TestPolicyContrast:
    def test_source_aware_trace_has_no_migration_edges(self):
        recorder, _sim = traced_run(base_config(policy="source_aware"))
        migrations = [f for f in recorder.flows if f.name == "migration"]
        assert migrations == []
        # ... which is the paper's whole point, visible in one trace.
        assert any(f.name == "irq-placement" for f in recorder.flows)

    def test_faulty_run_records_retry_markers(self):
        config = base_config(
            n_servers=4,
            faults=FaultPlan(
                server_failure_windows=((0, 0.0, 2e-3),),
                strip_retry_timeout=5e-3,
                max_strip_retries=4,
            ),
        )
        recorder, _sim = traced_run(config)
        assert any(s.name == "retry" for s in recorder.spans)
