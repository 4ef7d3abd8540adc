"""Tests for softirq daemons and the process table."""

import pytest

from repro.config import CostModel
from repro.des import Environment
from repro.errors import SimulationError
from repro.hw import CacheSystem, Core, InterconnectBus, InterruptContext, IoApic
from repro.kernel import ProcessTable, SoftirqDaemon
from repro.net import Packet
from repro.pfs import PfsClient, StripeLayout
from repro.units import GHz, KiB

from ..fixed_core import FixedCorePolicy


@pytest.fixture
def env():
    return Environment()


def build_stack(env, n_cores=2, policy=None):
    """Cores + cache + APIC + daemons + a PFS client, minimally wired."""
    cores = [Core(env, i, 2 * GHz) for i in range(n_cores)]
    cache = CacheSystem(n_cores, 512 * KiB, 64 * KiB)
    layout = StripeLayout(64 * KiB, 4)
    pfs = PfsClient(env, 0, layout, submit=lambda req: None)
    costs = CostModel()
    bus = InterconnectBus(env, costs)
    daemons = []
    for core in cores:
        daemons.append(SoftirqDaemon(env, core, cache, costs, pfs, bus, daemons))
    ioapic = IoApic(
        env,
        cores,
        policy or FixedCorePolicy(0),
        [daemon.enqueue for daemon in daemons],
    )
    return cores, cache, pfs, daemons, ioapic


class TestSoftirqDaemon:
    def test_handles_interrupt_and_installs_strip(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        outstanding = pfs.issue(0, 64 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=0,
        )
        ioapic.raise_interrupt(InterruptContext(packet=packet))
        env.run(until=0.01)
        assert daemons[0].handled == 1
        assert cache.owner(0) == 0
        assert outstanding.arrived == 1

    def test_softirq_charges_processing_time(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        outstanding = pfs.issue(0, 64 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=0,
        )
        ioapic.raise_interrupt(InterruptContext(packet=packet))
        env.run(until=0.01)
        expected = CostModel().strip_processing_time(64 * KiB)
        assert cores[0].busy_by_category["softirq"] == pytest.approx(expected)

    def test_cross_core_wakeup_cost_charged(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(
            env, policy=FixedCorePolicy(1)
        )
        outstanding = pfs.issue(0, 64 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=0,
        )
        ioapic.raise_interrupt(InterruptContext(packet=packet))
        env.run(until=0.01)
        # Handled on core 1, consumer on core 0 -> wake-up IPI charged.
        assert cores[1].busy_by_category["wakeup"] == pytest.approx(
            CostModel().wakeup_cost
        )

    def test_same_core_no_wakeup_cost(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        outstanding = pfs.issue(0, 64 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=0,
        )
        ioapic.raise_interrupt(InterruptContext(packet=packet))
        env.run(until=0.01)
        assert "wakeup" not in cores[0].busy_by_category

    def test_queued_interrupts_processed_in_order(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        outstanding = pfs.issue(0, 192 * KiB, consumer_core=0)
        for strip in range(3):
            packet = Packet(
                size=64 * KiB,
                src_server=strip,
                dst_client=0,
                request_id=outstanding.request.request_id,
                strip_id=strip,
            )
            ioapic.raise_interrupt(InterruptContext(packet=packet))
        env.run(until=0.01)
        assert daemons[0].handled == 3
        assert daemons[0].bytes_handled == 192 * KiB


    def test_enqueue_resumes_an_idle_daemon_in_place(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        outstanding = pfs.issue(0, 64 * KiB, consumer_core=0)
        env.run()  # the daemons start and park on their wake events
        baseline = env.events_processed
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=0,
        )
        daemons[0].enqueue(InterruptContext(packet=packet))
        # Handling began inside the enqueue: no wake-up or core-grant
        # event was needed to put the softirq on its core.
        assert cores[0].is_busy
        assert not daemons[0].backlog
        assert env.events_processed == baseline
        env.run()
        assert daemons[0].handled == 1
        # the softirq's processing timeout and nothing else
        assert env.events_processed == baseline + 1

    def test_backlog_drains_in_fifo_order(self, env):
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        outstanding = pfs.issue(0, 192 * KiB, consumer_core=0)
        env.run()
        seen = []
        arrived = pfs.segment_arrived

        def record(packet, handled_on):
            seen.append((packet.strip_id, env.now))
            return arrived(packet, handled_on)

        pfs.segment_arrived = record
        for strip in (2, 0, 1):
            daemons[0].enqueue(
                InterruptContext(
                    packet=Packet(
                        size=64 * KiB,
                        src_server=strip,
                        dst_client=0,
                        request_id=outstanding.request.request_id,
                        strip_id=strip,
                    )
                )
            )
        # The first context is being handled; the others wait in order.
        assert [ctx.packet.strip_id for ctx in daemons[0].backlog] == [0, 1]
        env.run()
        p = CostModel().strip_processing_time(64 * KiB)
        assert [strip for strip, _ in seen] == [2, 0, 1]
        assert [when for _, when in seen] == pytest.approx([p, 2 * p, 3 * p])


class TestWireInterrupts:
    def test_mismatched_counts_rejected(self, env):
        # The APIC takes one softirq entry per core; a daemon short refuses.
        cores, cache, pfs, daemons, ioapic = build_stack(env)
        with pytest.raises(SimulationError):
            IoApic(
                env,
                cores,
                FixedCorePolicy(0),
                [daemon.enqueue for daemon in daemons[:1]],
            )


class TestProcessTable:
    def test_spawn_and_locate(self):
        table = ProcessTable(4)
        table.spawn(1, core=2)
        assert table.core_of(1) == 2

    def test_duplicate_pid_rejected(self):
        table = ProcessTable(4)
        table.spawn(1, core=0)
        with pytest.raises(SimulationError):
            table.spawn(1, core=1)

    def test_pinned_process_cannot_migrate(self):
        table = ProcessTable(4)
        table.spawn(1, core=0, pinned=True)
        with pytest.raises(SimulationError):
            table.migrate(1, 2)

    def test_unpinned_migration_counts(self):
        table = ProcessTable(4)
        table.spawn(1, core=0, pinned=False)
        table.migrate(1, 3)
        table.migrate(1, 3)  # same core: not a migration
        assert table.core_of(1) == 3
        assert table.migrations_of(1) == 1

    def test_exit_removes(self):
        table = ProcessTable(4)
        table.spawn(1, core=0)
        table.exit(1)
        with pytest.raises(SimulationError):
            table.core_of(1)
        with pytest.raises(SimulationError):
            table.exit(1)

    def test_core_bounds_checked(self):
        table = ProcessTable(4)
        with pytest.raises(SimulationError):
            table.spawn(1, core=4)
