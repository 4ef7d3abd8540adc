"""Tests for the Sec. III closed-form model (equations 1-9)."""

import pytest

from repro.core import AnalysisParams
from repro.errors import ConfigError

P = 10e-6
M = 60e-6


def params(**kw):
    defaults = dict(
        n_cores=8,
        n_servers=48,
        strip_processing=P,
        strip_migration=M,
        rest_time=1.0,
        n_requests=100,
    )
    defaults.update(kw)
    return AnalysisParams(**defaults)


class TestSymbols:
    def test_alpha(self):
        assert params().alpha == pytest.approx(6.0)

    def test_migrations_per_request(self):
        assert params().migrations_per_request == pytest.approx(48 * 7 / 8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            params(n_cores=0)
        with pytest.raises(ConfigError):
            params(strip_processing=0)
        with pytest.raises(ConfigError):
            params(rest_time=-1)
        with pytest.raises(ConfigError):
            params(n_requests=0)


class TestSingleRequest:
    def test_eq3_value(self):
        expected = 1.0 + M * 6.0 * 7
        assert params().t_balanced_single() == pytest.approx(expected)

    def test_eq4_value(self):
        expected = 1.0 + P * 48
        assert params().t_source_aware_single() == pytest.approx(expected)

    def test_source_aware_wins_when_m_much_greater_than_p(self):
        p = params()
        assert (p.t_balanced_single() - p.rest_time) > (
            p.t_source_aware_single() - p.rest_time
        )

    def test_balanced_wins_when_m_equals_small_p(self):
        # With M == P the migration path is not worse per unit, and
        # balanced parallelizes processing, so the bound flips.
        p = params(strip_migration=P / 10)
        assert p.t_balanced_single() < p.t_source_aware_single()


class TestStreams:
    def test_eq5_scales_with_requests(self):
        assert params(n_requests=200).t_source_aware_stream() - 1.0 == (
            pytest.approx(2 * (params(n_requests=100).t_source_aware_stream() - 1.0))
        )

    def test_eq6_scales_with_requests(self):
        assert params(n_requests=200).t_balanced_stream() - 1.0 == pytest.approx(
            2 * (params(n_requests=100).t_balanced_stream() - 1.0)
        )

    def test_predicted_speedup_positive(self):
        assert params(rest_time=0.0).predicted_speedup_stream() > 0

    def test_gap_grows_with_servers(self):
        small = params(n_servers=8, rest_time=0.0)
        large = params(n_servers=48, rest_time=0.0)
        assert large.performance_gap() > small.performance_gap()


class TestEq7:
    def test_request_rate_ceiling(self):
        rate = AnalysisParams.max_requests_for_bandwidth(
            n_servers=48, request_size=1024, client_bandwidth=48 * 1024
        )
        assert rate == pytest.approx(1.0)

    def test_more_servers_less_rate(self):
        low = AnalysisParams.max_requests_for_bandwidth(8, 1024, 1e6)
        high = AnalysisParams.max_requests_for_bandwidth(48, 1024, 1e6)
        assert high < low

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            AnalysisParams.max_requests_for_bandwidth(0, 1024, 1e6)


class TestMultiProgram:
    def test_eq9_gap_formula(self):
        p = params()
        expected = 7 * 100 * 6.0 * (M - P)
        assert p.performance_gap() == pytest.approx(expected)

    def test_eq9_gap_vanishes_when_m_equals_p(self):
        assert params(strip_migration=P).performance_gap() == 0.0
