"""Tests for configuration dataclasses and their validation."""

import pytest

from repro.config import (
    ClientConfig,
    ClusterConfig,
    CostModel,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from repro.errors import ConfigError
from repro.units import Gbit, KiB, MiB


class TestCostModel:
    def test_defaults_satisfy_m_much_greater_than_p(self):
        costs = CostModel()
        strip = 64 * KiB
        p = costs.strip_processing_time(strip)
        m = costs.strip_migration_time(strip)
        assert m > 3 * p, "paper requires M >> P"

    def test_processing_time_scales_with_size(self):
        costs = CostModel()
        assert costs.strip_processing_time(128 * KiB) > costs.strip_processing_time(
            64 * KiB
        )

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ConfigError):
            CostModel(protocol_rate=0)
        with pytest.raises(ConfigError):
            CostModel(c2c_rate=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().protocol_rate = 1.0


class TestClientConfig:
    def test_default_matches_paper_head_node(self):
        client = ClientConfig()
        assert client.n_cores == 8
        assert client.l2_bytes == 512 * KiB
        assert client.nic_ports == 3

    def test_aggregate_nic_bandwidth(self):
        client = ClientConfig(nic_ports=3, nic_port_bandwidth=Gbit)
        assert client.nic_bandwidth == pytest.approx(3 * Gbit)

    def test_l2_must_align_to_line(self):
        with pytest.raises(ConfigError):
            ClientConfig(l2_bytes=1000)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            ClientConfig(n_cores=0)


class TestServerConfig:
    def test_cache_hit_ratio_bounds(self):
        with pytest.raises(ConfigError):
            ServerConfig(cache_hit_ratio=1.5)
        with pytest.raises(ConfigError):
            ServerConfig(cache_hit_ratio=-0.1)

    def test_defaults_valid(self):
        ServerConfig()  # no raise


class TestNetworkConfig:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            NetworkConfig(latency=-1.0)


class TestWorkloadConfig:
    def test_requests_per_process(self):
        wl = WorkloadConfig(transfer_size=MiB, file_size=10 * MiB)
        assert wl.requests_per_process == 10

    def test_file_smaller_than_transfer_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(transfer_size=2 * MiB, file_size=MiB)


class TestClusterConfig:
    def test_with_policy_returns_modified_copy(self):
        cfg = ClusterConfig(policy="irqbalance")
        other = cfg.with_policy("source_aware")
        assert other.policy == "source_aware"
        assert cfg.policy == "irqbalance"
        assert other.n_servers == cfg.n_servers

    def test_replace(self):
        cfg = ClusterConfig().replace(n_servers=48)
        assert cfg.n_servers == 48

    def test_empty_policy_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(policy="")

    def test_rejects_zero_servers(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_servers=0)
