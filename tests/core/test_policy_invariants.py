"""Policy-invariant harness: properties every registered policy must hold.

Parameterized over the *live* registry (``available_policies()``), so a newly
registered policy is pulled into every invariant automatically — and the
golden-coverage test fails loudly until the steering experiment's golden
snapshot is regenerated to include it.
"""

import json
import pathlib

import pytest

from repro.core.policy import (
    InterruptSchedulingPolicy,
    available_policies,
    create_policy,
    register_policy,
    unregister_policy,
)
from repro.des import Environment
from repro.hw import Core, InterruptContext
from repro.net import Packet
from repro.units import GHz, KiB

GOLDENS_DIR = (
    pathlib.Path(__file__).parent.parent / "experiments" / "goldens"
)

N_CORES = 8


def make_cores(env, n=N_CORES):
    return [Core(env, i, 2.0 * GHz) for i in range(n)]


def make_ctx(server=0, client=0, request_id=1, request_core=None, aff=None):
    packet = Packet(
        size=64 * KiB,
        src_server=server,
        dst_client=client,
        request_id=request_id,
        strip_id=request_id * 16 + server,
        request_core=request_core,
    )
    return InterruptContext(packet=packet, aff_core_id=aff)


def ctx_stream():
    """A fixed, varied sequence of interrupt contexts (fresh objects)."""
    for request_id in range(24):
        server = request_id % 5
        core = request_id % N_CORES
        yield make_ctx(
            server=server,
            client=request_id % 3,
            request_id=request_id,
            request_core=core,
            aff=core,
        )


@pytest.mark.parametrize("name", available_policies())
class TestEveryRegisteredPolicy:
    def test_routes_in_range(self, name):
        env = Environment()
        cores = make_cores(env)
        policy = create_policy(name)
        for ctx in ctx_stream():
            choice = policy.select_core(ctx, cores)
            assert 0 <= choice < len(cores), (
                f"{name} routed to core {choice} on a {len(cores)}-core box"
            )
            # A policy requesting an RPS handoff must name a real core.
            if ctx.rps_target is not None:
                assert 0 <= ctx.rps_target < len(cores)

    def test_deterministic_across_fresh_instances(self, name):
        """Same inputs, same picks — no wall clock, no unseeded RNG,
        no ``PYTHONHASHSEED`` dependence (required by the determinism
        and ``--jobs`` tiers)."""
        env = Environment()
        cores = make_cores(env)

        def picks():
            policy = create_policy(name)
            return [
                (policy.select_core(ctx, cores), ctx.rps_target)
                for ctx in ctx_stream()
            ]

        assert picks() == picks()

    def test_observe_tx_accepted(self, name):
        """The ATR sampling hook is part of the base interface: every
        policy must tolerate TX observations (most ignore them)."""
        policy = create_policy(name)
        for core in range(N_CORES):
            policy.observe_tx(server=core % 3, core=core)

    def test_interrupt_free_is_declared_classvar(self, name):
        policy = create_policy(name)
        assert isinstance(policy.interrupt_free, bool)
        if policy.interrupt_free:
            assert name == "rdma_zerointr"

    def test_covered_by_steering_comparison_golden(self, name):
        """Registering a policy without regenerating the steering golden
        must fail loudly: the experiment grid enumerates the registry,
        so the checked-in snapshot's rows must cover every name."""
        path = GOLDENS_DIR / "steering_comparison.quick.json"
        assert path.exists(), (
            "steering_comparison golden missing — run pytest with "
            "--update-goldens"
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        covered = {row[0] for row in payload["rows"]}
        assert name in covered, (
            f"policy {name!r} is registered but absent from the "
            "steering_comparison golden — regenerate it with "
            "--update-goldens so the new policy is covered"
        )


def test_list_policies_sorted_and_nonempty():
    names = available_policies()
    assert names == sorted(names)
    assert "irqbalance" in names


def test_new_policy_without_golden_fails_coverage():
    """End-to-end proof of the loud-failure property: register a policy,
    watch the golden-coverage predicate reject it, unregister."""

    class Probe(InterruptSchedulingPolicy):
        name = "test_probe_policy"

        def select_core(self, ctx, cores):  # pragma: no cover
            return 0

    register_policy(Probe)
    try:
        assert "test_probe_policy" in available_policies()
        payload = json.loads(
            (GOLDENS_DIR / "steering_comparison.quick.json").read_text(
                encoding="utf-8"
            )
        )
        covered = {row[0] for row in payload["rows"]}
        assert "test_probe_policy" not in covered
        assert not set(available_policies()) <= covered
    finally:
        unregister_policy("test_probe_policy")
    assert "test_probe_policy" not in available_policies()
