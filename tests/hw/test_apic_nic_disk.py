"""Tests for the interrupt fabric (IoApic), NIC and Disk models."""

import pytest

from repro.core.policies import RoundRobinPolicy
from repro.des import Environment
from repro.errors import SimulationError
from repro.hw import Core, Disk, InterruptContext, IoApic, Nic
from repro.net import Packet
from repro.rng import RngFactory
from repro.units import GHz, KiB, MiB, sum_left

from ..fixed_core import FixedCorePolicy


def make_packet(size=64 * KiB, server=0, strip=0, options=b""):
    return Packet(
        size=size,
        src_server=server,
        dst_client=0,
        request_id=1,
        strip_id=strip,
        options=options,
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cores(env):
    return [Core(env, i, 2.0 * GHz) for i in range(4)]


def receive(env, nic, packet):
    """Land ``packet`` on ``nic``'s wire now, the way the cluster's wire
    does: reserve the wire, then complete the receive when it drains."""
    env.call_at(nic.admit(packet.size, env.now), nic.complete_rx, packet)


def recording_apic(env, cores, policy, log):
    """An I/O APIC whose per-core entries record (core, ctx) in ``log``."""
    deliver = [
        lambda ctx, idx=core.index: log.append((idx, ctx)) for core in cores
    ]
    return IoApic(env, cores, policy, deliver)


class TestIoApic:
    def test_routes_via_policy(self, env, cores):
        log = []
        ioapic = recording_apic(env, cores, FixedCorePolicy(2), log)
        ioapic.raise_interrupt(InterruptContext(packet=make_packet()))
        assert log[0][0] == 2
        assert ioapic.deliveries == [0, 0, 1, 0]

    def test_round_robin_rotation(self, env, cores):
        log = []
        ioapic = recording_apic(env, cores, RoundRobinPolicy(), log)
        for _ in range(6):
            ioapic.raise_interrupt(InterruptContext(packet=make_packet()))
        assert [entry[0] for entry in log] == [0, 1, 2, 3, 0, 1]

    def test_missing_handler_raises(self, env, cores):
        # One interrupt entry per core, or the APIC refuses to build.
        too_few = [lambda ctx: None] * (len(cores) - 1)
        with pytest.raises(SimulationError):
            IoApic(env, cores, RoundRobinPolicy(), too_few)

    def test_needs_cores(self, env):
        with pytest.raises(SimulationError):
            IoApic(env, [], RoundRobinPolicy(), [])

    def test_invalid_policy_choice_detected(self, env, cores):
        class Broken(RoundRobinPolicy):
            def select_core(self, ctx, cores):
                return 99

        ioapic = recording_apic(env, cores, Broken(), [])
        with pytest.raises(SimulationError):
            ioapic.raise_interrupt(InterruptContext(packet=make_packet()))


class TestNic:
    def test_receive_serializes_at_bandwidth(self, env, cores):
        log = []
        ioapic = recording_apic(env, cores, FixedCorePolicy(0), log)
        nic = Nic(env, bandwidth=1 * MiB, ioapic=ioapic)
        receive(env, nic, make_packet(size=512 * KiB))
        env.run()
        assert env.now == pytest.approx(0.5)
        assert len(log) == 1
        assert nic.bytes_received == 512 * KiB

    def test_packets_queue_on_the_wire(self, env, cores):
        ioapic = recording_apic(env, cores, FixedCorePolicy(0), [])
        nic = Nic(env, bandwidth=1 * MiB, ioapic=ioapic)
        receive(env, nic, make_packet(size=1 * MiB))
        receive(env, nic, make_packet(size=1 * MiB))
        env.run()
        assert env.now == pytest.approx(2.0)
        assert nic.interrupts_raised == 2

    def test_driver_hook_feeds_aff_core_id(self, env, cores):
        log = []
        ioapic = recording_apic(env, cores, FixedCorePolicy(0), log)
        nic = Nic(
            env,
            bandwidth=1 * MiB,
            ioapic=ioapic,
            driver_hook=lambda packet: 3,
        )
        receive(env, nic, make_packet())
        env.run()
        assert log[0][1].aff_core_id == 3

    def test_framing_overhead(self, env, cores):
        ioapic = recording_apic(env, cores, FixedCorePolicy(0), [])
        nic = Nic(env, bandwidth=1 * MiB, ioapic=ioapic, framing_overhead=0.5)
        receive(env, nic, make_packet(size=1 * MiB))
        env.run()
        assert env.now == pytest.approx(1.5)

    def test_busy_time(self, env, cores):
        ioapic = recording_apic(env, cores, FixedCorePolicy(0), [])
        nic = Nic(env, bandwidth=1 * MiB, ioapic=ioapic)
        receive(env, nic, make_packet(size=512 * KiB))
        env.run()
        assert nic.busy_time == pytest.approx(0.5)


class TestDisk:
    def test_read_time_seek_plus_transfer(self, env):
        disk = Disk(env, rate=1 * MiB, seek=0.5)
        env.process(disk.read(1 * MiB))
        env.run()
        assert env.now == pytest.approx(1.5)

    def test_requests_serialize_on_spindle(self, env):
        disk = Disk(env, rate=1 * MiB, seek=0.0)
        env.process(disk.read(1 * MiB))
        env.process(disk.read(1 * MiB))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_seek_jitter_is_bounded_and_deterministic(self, env):
        rng = RngFactory(3).stream("disk")
        disk = Disk(env, rate=100 * MiB, seek=0.01, rng=rng)
        times = []

        def one_read(env):
            start = env.now
            yield from disk.read(64 * KiB)
            times.append(env.now - start)

        def sequence(env):
            for _ in range(10):
                yield from one_read(env)

        env.process(sequence(env))
        env.run()
        for elapsed in times:
            seek_part = elapsed - (64 * KiB) / (100 * MiB)
            assert 0.0075 <= seek_part <= 0.0125

    def test_busy_time_sums_the_drawn_service_times(self, env):
        rng = RngFactory(3).stream("disk")
        disk = Disk(env, rate=100 * MiB, seek=0.01, rng=rng)
        drawn = []

        def recorded(nbytes, draw=disk._service_time):
            drawn.append(draw(nbytes))
            return drawn[-1]

        disk._service_time = recorded

        def sequence(env):
            for _ in range(3):
                yield from disk.read(64 * KiB)

        for _ in range(3):  # three queued behind each other ...
            env.process(disk.read(64 * KiB))
        env.process(sequence(env))  # ... and three one after another
        env.process(disk.write(64 * KiB))
        env.run()
        assert len(drawn) == disk.requests == 7
        assert len(set(drawn)) == 7  # equal sizes: only the jitter differs
        assert disk.busy_time == sum_left(drawn)

    def test_counters(self, env):
        disk = Disk(env, rate=1 * MiB, seek=0.0)
        env.process(disk.read(256 * KiB))
        env.run()
        assert disk.bytes_read == 256 * KiB
        assert disk.requests == 1

    def test_invalid_params(self, env):
        with pytest.raises(ValueError):
            Disk(env, rate=0, seek=0.0)
        with pytest.raises(ValueError):
            Disk(env, rate=1.0, seek=-1.0)
