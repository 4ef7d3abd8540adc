"""Tests for the interrupt-scheduling policies and the registry."""

import pytest

from repro.core import (
    DedicatedPolicy,
    IrqbalancePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    SourceAwarePolicy,
    SourceAwareProcessPolicy,
    available_policies,
    create_policy,
)
from repro.core.policy import InterruptSchedulingPolicy, register_policy
from repro.des import Environment
from repro.errors import ConfigError
from repro.hw import Core, InterruptContext
from repro.net import Packet
from repro.units import GHz, KiB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cores(env):
    return [Core(env, i, 2.0 * GHz) for i in range(8)]


def ctx(server=0, aff=None, request_id=1, request_core=None):
    packet = Packet(
        size=64 * KiB,
        src_server=server,
        dst_client=0,
        request_id=request_id,
        strip_id=0,
        request_core=request_core,
    )
    return InterruptContext(packet=packet, aff_core_id=aff)


class TestRegistry:
    def test_all_expected_policies_registered(self):
        names = available_policies()
        for expected in (
            "round_robin",
            "dedicated",
            "least_loaded",
            "irqbalance",
            "source_aware",
            "source_aware_process",
        ):
            assert expected in names

    def test_create_by_name(self):
        assert isinstance(create_policy("round_robin"), RoundRobinPolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            create_policy("does_not_exist")

    def test_duplicate_registration_rejected(self):
        class Dup(InterruptSchedulingPolicy):
            name = "round_robin"

            def select_core(self, ctx, cores):  # pragma: no cover
                return 0

        with pytest.raises(ConfigError):
            register_policy(Dup)

    def test_nameless_registration_rejected(self):
        class NoName(InterruptSchedulingPolicy):
            def select_core(self, ctx, cores):  # pragma: no cover
                return 0

        with pytest.raises(ConfigError):
            register_policy(NoName)


class TestRoundRobin:
    def test_cycles_through_cores(self, cores):
        policy = RoundRobinPolicy()
        picks = [policy.select_core(ctx(), cores) for _ in range(10)]
        assert picks == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]


class TestDedicated:
    def test_defaults_to_last_core(self, cores):
        assert DedicatedPolicy().select_core(ctx(), cores) == 7


class TestLeastLoaded:
    def test_picks_idle_core(self, env, cores):
        env.process(cores[0].run(1.0, "x"))
        env.run(until=0.5)
        choice = LeastLoadedPolicy().select_core(ctx(), cores)
        assert choice != 0

    def test_tie_break_deterministic(self, cores):
        assert LeastLoadedPolicy().select_core(ctx(), cores) == 0


class TestIrqbalance:
    def test_flow_to_core_stable_between_rebalances(self, env, cores):
        policy = IrqbalancePolicy()
        a = policy.select_core(ctx(server=3), cores)
        # Busy the chosen core, but stay inside the rebalance interval.
        env.process(cores[a].run(1.0, "hog"))
        env.run(until=IrqbalancePolicy.REBALANCE_INTERVAL / 2)
        b = policy.select_core(ctx(server=3), cores)
        assert a == b

    def test_different_flows_scatter(self, env, cores):
        policy = IrqbalancePolicy()
        picks = {policy.select_core(ctx(server=s), cores) for s in range(8)}
        assert len(picks) == 8

    def test_rebalance_moves_queues_off_loaded_cores(self, env, cores):
        policy = IrqbalancePolicy()
        first = policy.select_core(ctx(server=0), cores)
        # Load up the chosen core, advance past the rebalance interval.
        env.process(cores[first].run(5.0, "hog"))
        env.run(until=1.0)
        second = policy.select_core(ctx(server=0), cores)
        assert second != first


class TestSourceAware:
    def test_follows_hint(self, cores):
        assert SourceAwarePolicy().select_core(ctx(aff=5), cores) == 5

    def test_requires_hints_flag(self):
        assert SourceAwarePolicy.requires_hints is True

    def test_falls_back_to_least_loaded_without_hint(self, env, cores):
        env.process(cores[0].run(1.0, "x"))
        env.run(until=0.5)
        choice = SourceAwarePolicy().select_core(ctx(aff=None), cores)
        assert choice != 0

    def test_ignores_out_of_range_hint(self, cores):
        choice = SourceAwarePolicy().select_core(ctx(aff=31), cores)
        assert 0 <= choice < 8 and choice != 31


class TestSourceAwareProcess:
    def test_uses_locator(self, cores):
        policy = SourceAwareProcessPolicy()
        policy.set_process_locator(lambda request_id: 6)
        assert policy.select_core(ctx(aff=2), cores) == 6

    def test_falls_back_to_hint_without_locator(self, cores):
        assert SourceAwareProcessPolicy().select_core(ctx(aff=2), cores) == 2

    def test_falls_back_when_locator_returns_none(self, cores):
        policy = SourceAwareProcessPolicy()
        policy.set_process_locator(lambda request_id: None)
        assert policy.select_core(ctx(aff=4), cores) == 4
