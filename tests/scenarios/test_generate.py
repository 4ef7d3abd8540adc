"""Generator contract: byte-reproducibility, constraints, features."""

import hashlib
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.net.ip_options import MAX_ENCODABLE_CORES
from repro.runner.cache import config_digest
from repro.scenarios import (
    BUILTIN_SPECS,
    generate_scenarios,
    scenario_file_size,
)
from repro.units import MiB


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_same_spec_and_seed_regenerate_identically(self, name):
        spec = BUILTIN_SPECS[name]
        first = generate_scenarios(spec, 8, seed=7, scale="quick")
        second = generate_scenarios(spec, 8, seed=7, scale="quick")
        assert first == second

    def test_prefix_stability(self):
        """Scenario i does not depend on how many scenarios are asked for."""
        spec = BUILTIN_SPECS["heterogeneous"]
        few = generate_scenarios(spec, 3, seed=1, scale="quick")
        many = generate_scenarios(spec, 12, seed=1, scale="quick")
        assert many[:3] == few

    def test_different_seeds_differ(self):
        spec = BUILTIN_SPECS["heterogeneous"]
        a = generate_scenarios(spec, 8, seed=1, scale="quick")
        b = generate_scenarios(spec, 8, seed=2, scale="quick")
        assert a != b

    def test_fresh_subprocess_reproduces_config_digests(self):
        """Byte-reproducibility across processes (no PYTHONHASHSEED leak)."""
        spec = BUILTIN_SPECS["leafspine"]
        local = [
            config_digest(s.config)
            for s in generate_scenarios(spec, 4, seed=9, scale="quick")
        ]
        script = (
            "from repro.scenarios import BUILTIN_SPECS, generate_scenarios\n"
            "from repro.runner.cache import config_digest\n"
            "for s in generate_scenarios(BUILTIN_SPECS['leafspine'], 4, "
            "seed=9, scale='quick'):\n"
            "    print(config_digest(s.config))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == local


#: sha256 over ``config_digest(s.config)`` of the first 96 scenarios of
#: each built-in spec, by (spec, seed, scale).  Generation runs no
#: simulation, so these pin every drawn config without the cost of a
#: sweep: a change to how a knob parses, draws or casts moves one.
GENERATOR_PINS = {
    ("heterogeneous", 1, "quick"): "6c25c265e2581004a6bc12ddb4f265794f0a3810bf810b25b91be2daf4a3036d",
    ("heterogeneous", 1, "default"): "0fd64009b24ff3b28674e5b6d053ec9796aaccae61a96be81e0160c51ece167b",
    ("heterogeneous", 7, "quick"): "1915ef19e9b13a4ef6552b9e48c695b101f837bb4213e225d27bc1647e215000",
    ("heterogeneous", 7, "default"): "7d1d818453434bcd226f1612f5f77ae0d1d41df73ceffe67f6a59844ca5f688a",
    ("homogeneous", 1, "quick"): "8ea23d84d80c7062fee8f2a05d4b76eb3a2cf82e29043565a1b0249e8ed86f9f",
    ("homogeneous", 1, "default"): "5631d6504bb505a6b7e3d3f5274429680481914e043100060a9e1a73d4b67121",
    ("homogeneous", 7, "quick"): "a8a7df6076b56b71885e4341489f479b5cbebc9e2dea425059770e28d4f3b570",
    ("homogeneous", 7, "default"): "6baa96d6286b4133ef46b861bcd807ca299149091416e7d32d53c7f087d3381b",
    ("leafspine", 1, "quick"): "9761d0579c8e07781481774df5ae68507a77f04a824407d71e5cd87bca96722a",
    ("leafspine", 1, "default"): "941fc3e54458e986b894ced8de34c27d90c3375df3f502a19b0cd233c78924c9",
    ("leafspine", 7, "quick"): "72ad0e3e6dcb1abcf2b7fa55829a4cb89e275002d4e651ff44f58b69f25e4f6a",
    ("leafspine", 7, "default"): "69f7296cb973f46763b84291c37733f3104901a89839632d07b8fed8b9d795d9",
}


class TestPinnedGenerator:
    @pytest.mark.parametrize(
        "name, seed, scale",
        sorted(GENERATOR_PINS),
        ids=[f"{n}-{s}-{c}" for n, s, c in sorted(GENERATOR_PINS)],
    )
    def test_config_digests_match_the_pin(self, name, seed, scale):
        digest = hashlib.sha256()
        for scenario in generate_scenarios(
            BUILTIN_SPECS[name], 96, seed=seed, scale=scale
        ):
            digest.update(config_digest(scenario.config).encode())
        assert digest.hexdigest() == GENERATOR_PINS[name, seed, scale]


class TestConstraints:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_every_drawn_config_is_valid(self, name):
        """ClusterConfig validation never fires on generated points."""
        for scenario in generate_scenarios(
            BUILTIN_SPECS[name], 16, seed=3, scale="quick"
        ):
            config = scenario.config
            assert 1 <= config.client.n_cores <= MAX_ENCODABLE_CORES
            assert config.client.n_cores % config.client.n_sockets == 0
            assert config.workload.file_size >= config.workload.transfer_size
            assert config.network.switch_bandwidth >= config.server.nic_bandwidth

    def test_features_track_their_config(self):
        for scenario in generate_scenarios(
            BUILTIN_SPECS["leafspine"], 8, seed=1, scale="quick"
        ):
            f = scenario.features
            assert f.n_servers == scenario.config.n_servers
            assert f.n_clients == scenario.config.n_clients
            assert f.fan_in == round(f.n_servers / f.n_clients, 3)
            assert f.tiers in (2, 3)
            assert f.operation == scenario.config.workload.operation

    def test_oversubscription_sizes_the_backplane(self):
        """switch = max(edge/ratio, fastest link), and some scenarios
        genuinely end up fabric-constrained (switch < edge sum)."""
        scenarios = generate_scenarios(
            BUILTIN_SPECS["leafspine"], 16, seed=2, scale="quick"
        )
        shrunk = 0
        for s in scenarios:
            edge = max(
                s.config.n_servers * s.config.server.nic_bandwidth,
                s.config.n_clients * s.config.client.nic_bandwidth,
            )
            fastest = max(
                s.config.server.nic_bandwidth, s.config.client.nic_bandwidth
            )
            expected = max(edge / s.features.oversubscription, fastest)
            assert s.config.network.switch_bandwidth == expected
            shrunk += s.config.network.switch_bandwidth < edge
        assert shrunk, "spec should draw some fabric-constrained scenarios"

    def test_bad_samples_raise(self):
        spec = BUILTIN_SPECS["homogeneous"]
        with pytest.raises(ConfigError):
            generate_scenarios(spec, 0)
        with pytest.raises(ConfigError):
            generate_scenarios(spec, "many")


class TestFileSize:
    def test_scale_dials_run_length_only(self):
        quick = generate_scenarios(BUILTIN_SPECS["homogeneous"], 4, 1, "quick")
        full = generate_scenarios(BUILTIN_SPECS["homogeneous"], 4, 1, "full")
        for q, f in zip(quick, full):
            assert q.features == f.features
            assert q.config.workload.file_size < f.config.workload.file_size

    def test_file_size_covers_the_transfer(self):
        assert scenario_file_size("quick", 4 * MiB) == 8 * MiB
        assert scenario_file_size("quick", 128 * 1024) == 1 * MiB

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            scenario_file_size("enormous", 1)
