"""Known answers of the coalesced wire (``repro.net.fastpath``).

The wire computes switch-fabric and NIC-wire departures analytically, in
two calendar events per segment.  Its verdicts were frozen from a
per-segment reference path that queued every hop on its own resource
(``Link.transmit`` -> ``Switch.forward`` -> ``Nic.receive``, since
deleted): for each case, the sha256 of its sorted-key ``RunMetrics`` JSON
(bandwidths, interrupt counts, cache migrations, per-core distributions,
fault and recovery counters) and, for the named cases, the run's end time
as ``float.hex``.  Both paths gave every answer below, on a healthy fabric
and under every fault plan; a change that moves one has changed what the
wire models.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro import ClientConfig, ClusterConfig, NetworkConfig, WorkloadConfig
from repro.cluster.simulation import Simulation
from repro.experiments.base import get_grid_experiment
from repro.faults import FaultPlan
from repro.units import KiB, MiB


def _run(config):
    """Run ``config``; return the simulation and its ``RunMetrics`` dict."""
    sim = Simulation(config)
    return sim, dataclasses.asdict(sim.run())


def _digest(metrics):
    """sha256 of a run's ``RunMetrics`` as sorted-key JSON."""
    text = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_known(config, known):
    """The run of ``config`` gives ``known`` = (end time hex, digest)."""
    _sim, metrics = _run(config)
    assert (metrics["elapsed"].hex(), _digest(metrics)) == known
    return metrics


#: Known answers of the cases below, recorded on both wire paths.
KNOWN = {
    "plain_read": (
        "0x1.14d1ca482940ap-5",
        "65f05766df23384a152c6b98a220a96d8d6e4ffc577839e0c74fceb3ef181b24",
    ),
    "napi_read": (
        "0x1.3a60db391e92ap-5",
        "bb62cb89bb4ff77f896adb6322edc46b6409d07b410dbc6d7eb59562a447069f",
    ),
    "irqbalance_read": (
        "0x1.36461fb74b8a4p-5",
        "fde110da1b962a7f16216d9b4e7a7d3e452be8f0196dab3a8d07595ef1f54d2e",
    ),
    "write_path": (
        "0x1.19fcc963aee9ep-7",
        "92ca5e9e4d0b13678adbdd5827b49ca888348315c9ba7a1ef73c3731f51e8ef3",
    ),
    "loss_unsegmented": (
        "0x1.d5682522a2f88p-7",
        "4985c63e06dd644395d5080f817a4f20fc1116452c523a5d2a107289cac8cd2a",
    ),
    "resilience_loss_sweep_cell": (
        "0x1.be9fd434c36adp-5",
        "ad48172fec78a5382cc997602feeabd12beaa368adb3a995d897cd575d3156af",
    ),
    "reorder_at_mss_1460": (
        "0x1.d3f33d5de3932p-7",
        "b20b80ec95a16e8f2656830d5cf5f3b779dfe12a8d083c1cb90c1a08a636c69b",
    ),
    "strip_and_corrupt_under_source_aware": (
        "0x1.b4b212f3556a2p-7",
        "ba768da97aee3ab2277ca4b3f669114653984460b96274c7c85b1ad620590c48",
    ),
    "straggler_and_failure_window": (
        "0x1.0ed9ef86a75ebp-6",
        "a7ad62d32b8dcef5eebf31e0c472e0e0390510ce45ec4c6af3c9a921f7f76e6a",
    ),
    "write_with_loss_and_reorder": (
        "0x1.b252a277177a1p-8",
        "6a6591c5eda7e30aeef1829a14a7bd82d0171639828d0ce87340b58a3fe0ee3a",
    ),
    "napi_with_reorder": (
        "0x1.555e32642f7fbp-6",
        "ee642ba374e5716243965710dda96e23efa81deb7c32fcba9486be07127fb2bc",
    ),
}


class TestWireFastPathEquivalence:
    def test_plain_read(self):
        _assert_known(
            ClusterConfig(
                n_servers=8,
                workload=WorkloadConfig(
                    n_processes=2, transfer_size=256 * KiB, file_size=1 * MiB
                ),
            ),
            KNOWN["plain_read"],
        )

    def test_napi_read(self):
        # Segmented strips: a poll drains the segments that landed while
        # it ran, so NAPI raises fewer interrupts than segments arrive
        # (446 for 512; with NAPI off, every segment interrupts).
        sim, metrics = _run(
            ClusterConfig(
                n_servers=8,
                client=ClientConfig(napi=True),
                network=NetworkConfig(mss=8960),
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=256 * KiB, file_size=1 * MiB
                ),
            )
        )
        assert (metrics["elapsed"].hex(), _digest(metrics)) == KNOWN["napi_read"]
        interrupts = sum(metrics["clients"][0]["interrupts_per_core"])
        assert interrupts < sim.cluster.clients[0].nic.packets_received

    def test_irqbalance_read(self):
        _assert_known(
            ClusterConfig(
                n_servers=8,
                policy="irqbalance",
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=256 * KiB, file_size=1 * MiB
                ),
            ),
            KNOWN["irqbalance_read"],
        )

    def test_write_path(self):
        _assert_known(
            ClusterConfig(
                n_servers=8,
                workload=WorkloadConfig(
                    n_processes=2,
                    transfer_size=256 * KiB,
                    file_size=1 * MiB,
                    operation="write",
                ),
            ),
            KNOWN["write_path"],
        )

    def test_event_reduction_is_large_on_reads(self):
        """The wire's event count on a read config, pinned exactly.

        The per-segment reference path dispatched 1,896 events on this
        config, for the same end time; the coalesced wire dispatched
        1,128, and 1,026 since each compute phase runs as chunk trains.
        """
        sim, metrics = _run(
            ClusterConfig(
                n_servers=8,
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=512 * KiB, file_size=2 * MiB
                ),
            )
        )
        assert sim.cluster.env.events_processed == 1_026
        assert metrics["elapsed"].hex() == "0x1.d0661e0adc921p-5"


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
    """Every hazard of a fault plan runs on the wire, invisibly.

    Each case also checks that its hazard actually fired, so a plan that
    silently stopped injecting cannot pass on a stale answer.
    """

    def test_loss_unsegmented(self):
        res = _assert_known(
            _small(faults=FaultPlan(loss_prob=0.2, seed=7)),
            KNOWN["loss_unsegmented"],
        )["resilience"]
        assert res["retransmits"] > 0

    def test_resilience_loss_sweep_cell(self):
        # The p=0.05 cell of the quick loss sweep: loss, option stripping
        # and reordering together on jumbo-frame segment trains.
        config = get_grid_experiment("resilience_loss_sweep").grid("quick")[-1]
        assert config.faults.loss_prob == 0.05
        res = _assert_known(
            config.with_policy("source_aware"),
            KNOWN["resilience_loss_sweep_cell"],
        )["resilience"]
        assert res["retransmits"] > 0
        assert res["options_stripped"] > 0
        assert res["packets_delayed"] > 0

    def test_reorder_at_mss_1460(self):
        # Delayed segments land behind later-relayed ones: the fast path
        # holds them back until their arrival instant.
        res = _assert_known(
            _small(
                network=NetworkConfig(mss=1460),
                faults=FaultPlan(reorder_prob=0.2, seed=7),
            ),
            KNOWN["reorder_at_mss_1460"],
        )["resilience"]
        assert res["packets_delayed"] > 0
        assert res["reorder_events"] > 0

    def test_strip_and_corrupt_under_source_aware(self):
        res = _assert_known(
            _small(
                policy="source_aware",
                network=NetworkConfig(mss=8960),
                faults=FaultPlan(
                    strip_option_prob=0.1, corrupt_prob=0.1, seed=7
                ),
            ),
            KNOWN["strip_and_corrupt_under_source_aware"],
        )["resilience"]
        assert res["options_stripped"] > 0
        assert res["options_corrupted"] > 0
        assert res["fallback_steered"] > 0

    def test_straggler_and_failure_window(self):
        res = _assert_known(
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
            KNOWN["straggler_and_failure_window"],
        )["resilience"]
        assert res["requests_dropped"] > 0
        assert res["strip_retries"] > 0
        assert res["duplicate_strips"] > 0

    def test_write_with_loss_and_reorder(self):
        res = _assert_known(
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
            KNOWN["write_with_loss_and_reorder"],
        )["resilience"]
        assert res["retransmits"] > 0
        assert res["packets_delayed"] > 0

    def test_napi_with_reorder(self):
        res = _assert_known(
            _small(
                client=ClientConfig(napi=True),
                network=NetworkConfig(mss=1460),
                workload=WorkloadConfig(
                    n_processes=4, transfer_size=256 * KiB, file_size=512 * KiB
                ),
                faults=FaultPlan(reorder_prob=0.2, seed=7),
            ),
            KNOWN["napi_with_reorder"],
        )["resilience"]
        assert res["packets_delayed"] > 0
        assert res["reorder_events"] > 0


#: Every hazard at once: the one plan of the configuration matrix.
MATRIX_PLAN = FaultPlan(
    loss_prob=0.05,
    corrupt_prob=0.1,
    strip_option_prob=0.1,
    reorder_prob=0.2,
    straggler_servers=(1,),
    straggler_slowdown=8.0,
    server_failure_windows=((2, 0.0, 2e-3),),
    strip_retry_timeout=5e-3,
    max_strip_retries=5,
    seed=7,
)

MATRIX = list(
    itertools.product(
        (
            "irqbalance",
            "source_aware",
            "round_robin",
            "dedicated",
            "rss",
            "rps_rfs",
        ),
        ("irq", "napi"),
        (1, 3),
        ("read", "write"),
    )
)


def _matrix_id(case):
    policy, mode, n_clients, operation = case
    return f"{policy}-{mode}-{n_clients}c-{operation}"


#: ``RunMetrics`` digests of the matrix, recorded on both wire paths.
MATRIX_KNOWN = {
    "irqbalance-irq-1c-read": "b6828f47694fb7932d2d5e7daa3e9b20271e46fc648dbc50114a980ea2cd9b4b",
    "irqbalance-irq-1c-write": "1ae69ff7d1818b3233714932da7c114cb49f9dc3ade660143781b547a9443bfa",
    "irqbalance-irq-3c-read": "50b350082d6557bedf8bac204d12cddb712f97ff2e95ca9dfdd369718c6c56d7",
    "irqbalance-irq-3c-write": "3874f9ffa180ba56225fa40d2ac60a70dc7d400d28683d14c3cf9a820db7ed6a",
    "irqbalance-napi-1c-read": "b6828f47694fb7932d2d5e7daa3e9b20271e46fc648dbc50114a980ea2cd9b4b",
    "irqbalance-napi-1c-write": "1ae69ff7d1818b3233714932da7c114cb49f9dc3ade660143781b547a9443bfa",
    "irqbalance-napi-3c-read": "50b350082d6557bedf8bac204d12cddb712f97ff2e95ca9dfdd369718c6c56d7",
    "irqbalance-napi-3c-write": "3874f9ffa180ba56225fa40d2ac60a70dc7d400d28683d14c3cf9a820db7ed6a",
    "source_aware-irq-1c-read": "137c60692827a3f9786aee7fea52ffbcf8d819f2ea87de20ea2842d58b14628f",
    "source_aware-irq-1c-write": "3681f71a716c8f84631b4e47bb7abfe310b9c66711b4c69ec81f9a928c2785d0",
    "source_aware-irq-3c-read": "1868558e7771fc6177050c0b87b88fe0be2d3b5a225edf4fc9de85381efd94f3",
    "source_aware-irq-3c-write": "e91aa23b7f9fee6e3aed7a73386888fea4eec0fbfe53d186a44d26faf937a2ef",
    "source_aware-napi-1c-read": "81c7896f8a58e473d22aa084576ddd7a902aee1b61b78d424950e7835e888a09",
    "source_aware-napi-1c-write": "3681f71a716c8f84631b4e47bb7abfe310b9c66711b4c69ec81f9a928c2785d0",
    "source_aware-napi-3c-read": "d91aa7100f23ec6cb777438b98dd634ebfe849183a254ed3c069caaf81b43986",
    "source_aware-napi-3c-write": "e91aa23b7f9fee6e3aed7a73386888fea4eec0fbfe53d186a44d26faf937a2ef",
    "round_robin-irq-1c-read": "a19fef4cdca13ef060c256c3ddd38a89be25b041ba27a0f72a652ba80f4eb3b5",
    "round_robin-irq-1c-write": "e77990ff9ea824e74e36286f0cf85184b85fd18f8cc671775a39d62bebbc7595",
    "round_robin-irq-3c-read": "43df0c8b52cc04165d2207906001db01234201dd00855af9bb3dac0fe239e40e",
    "round_robin-irq-3c-write": "cc4bc9c0d1029b4417503ee08b37b7d132bf69d3fdae7693f0be5cacb5212a2a",
    "round_robin-napi-1c-read": "44fc15bcce70fd643dfb55d0defeb349ec556854355b79575a146cfefb8b7df6",
    "round_robin-napi-1c-write": "e77990ff9ea824e74e36286f0cf85184b85fd18f8cc671775a39d62bebbc7595",
    "round_robin-napi-3c-read": "05ce81a3ee130035cda3a0b1fac1b62e0798c7a967c7d71be91ea5827088ee6a",
    "round_robin-napi-3c-write": "cc4bc9c0d1029b4417503ee08b37b7d132bf69d3fdae7693f0be5cacb5212a2a",
    "dedicated-irq-1c-read": "56c38d68eccafcbc90a5cea8fe2e3379b38ed924ddb94dc8abca0810dfc2c005",
    "dedicated-irq-1c-write": "2605f3c68d856ab6295daebcbb1c53932376e701e46530fb78efc2b80d3da24c",
    "dedicated-irq-3c-read": "9e17a6e05ab0dcddc48a051c7c87afa2bf3caaebc4d0f09a085053fb801aa50c",
    "dedicated-irq-3c-write": "2136f09ee07bdd1b59c8cfd5841cd9337de96e196e1725beeb23035caa214767",
    "dedicated-napi-1c-read": "56c38d68eccafcbc90a5cea8fe2e3379b38ed924ddb94dc8abca0810dfc2c005",
    "dedicated-napi-1c-write": "2605f3c68d856ab6295daebcbb1c53932376e701e46530fb78efc2b80d3da24c",
    "dedicated-napi-3c-read": "9e17a6e05ab0dcddc48a051c7c87afa2bf3caaebc4d0f09a085053fb801aa50c",
    "dedicated-napi-3c-write": "2136f09ee07bdd1b59c8cfd5841cd9337de96e196e1725beeb23035caa214767",
    "rss-irq-1c-read": "b9c1afc0eb96fb3575a139d15d11cae4f2ed178da7674c11ee12a6ed16b8352d",
    "rss-irq-1c-write": "6f3e4b713a91fc568337a7c2358bc66f45c338671188d03334847d465d1889f7",
    "rss-irq-3c-read": "3eaf66572a89ee6f10f3691deebdee5c760e0562928296ea2f0cca6e5697a2db",
    "rss-irq-3c-write": "ca1dac77c23608247e2790b3f420d674065eef6ab406804d116d65d129e223bc",
    "rss-napi-1c-read": "b9c1afc0eb96fb3575a139d15d11cae4f2ed178da7674c11ee12a6ed16b8352d",
    "rss-napi-1c-write": "6f3e4b713a91fc568337a7c2358bc66f45c338671188d03334847d465d1889f7",
    "rss-napi-3c-read": "3eaf66572a89ee6f10f3691deebdee5c760e0562928296ea2f0cca6e5697a2db",
    "rss-napi-3c-write": "ca1dac77c23608247e2790b3f420d674065eef6ab406804d116d65d129e223bc",
    "rps_rfs-irq-1c-read": "e4dec2e484a8bf59c52a497df6f3975798d2941e2f354299b2fcf30fd3004202",
    "rps_rfs-irq-1c-write": "2cce44d4564ba0eda4635dd648180009a2968e7a28bc6bd8b7f02bfcb94c2a92",
    "rps_rfs-irq-3c-read": "13b1cbadecbdd8ca952a5100a7c06b1b8cad21eee4e20a9d8397b37934f90d26",
    "rps_rfs-irq-3c-write": "0fb15c4baad96812e1e7c196ee269d2083b28e7f1d61ec50770aff0eb9fc2484",
    "rps_rfs-napi-1c-read": "220419a5c3a489837880b9d3e1ff73866024faf9a0353b41b3b25f3a42a4d5c5",
    "rps_rfs-napi-1c-write": "2cce44d4564ba0eda4635dd648180009a2968e7a28bc6bd8b7f02bfcb94c2a92",
    "rps_rfs-napi-3c-read": "f7b56d4b49d24836bb3477b7f9b9211cfe544f0cebb9ad80c1dd708d15c1e39b",
    "rps_rfs-napi-3c-write": "0fb15c4baad96812e1e7c196ee269d2083b28e7f1d61ec50770aff0eb9fc2484",
}


class TestConfigurationMatrix:
    """DESIGN.md §8's matrix: six policies, NAPI on and off, 1 or 3
    clients, reads and writes, all under :data:`MATRIX_PLAN` at MSS 1460.
    """

    @pytest.mark.parametrize("case", MATRIX, ids=_matrix_id)
    def test_matches_known_answer(self, case):
        policy, mode, n_clients, operation = case
        config = ClusterConfig(
            n_servers=4,
            n_clients=n_clients,
            policy=policy,
            client=ClientConfig(napi=mode == "napi"),
            network=NetworkConfig(mss=1460),
            workload=WorkloadConfig(
                n_processes=2,
                transfer_size=256 * KiB,
                file_size=512 * KiB,
                operation=operation,
            ),
            faults=MATRIX_PLAN,
        )
        _sim, metrics = _run(config)
        assert _digest(metrics) == MATRIX_KNOWN[_matrix_id(case)]
