"""Tests for unit constants and parsing helpers."""

import pytest

from repro.errors import ConfigError
from repro.units import (
    GiB,
    Gbit,
    KiB,
    MiB,
    bits_per_sec,
    format_size,
    format_time,
    parse_size,
    sum_left,
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("64K", 64 * KiB),
            ("64KB", 64 * KiB),
            ("64KiB", 64 * KiB),
            ("128k", 128 * KiB),
            ("1M", MiB),
            ("2MB", 2 * MiB),
            ("10G", 10 * GiB),
            ("512", 512),
            ("0", 0),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    def test_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_negative_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_size(-1)

    @pytest.mark.parametrize("bad", ["", "abc", "12Q", "1.5.5M", "M"])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            parse_size(bad)

    def test_fractional_bytes_rejected(self):
        with pytest.raises(ConfigError):
            parse_size("0.3")


class TestFormat:
    def test_format_size_round_units(self):
        assert format_size(64 * KiB) == "64K"
        assert format_size(MiB) == "1M"
        assert format_size(3 * GiB) == "3G"
        assert format_size(100) == "100B"

    def test_format_size_negative_rejected(self):
        with pytest.raises(ConfigError):
            format_size(-5)

    def test_format_time_units(self):
        assert format_time(2.0).endswith(" s")
        assert format_time(2e-3).endswith(" ms")
        assert format_time(2e-6).endswith(" us")


class TestBandwidthUnits:
    def test_gbit_is_decimal(self):
        assert Gbit == 125_000_000.0  # 1e9 bits -> bytes

    def test_bits_per_sec(self):
        assert bits_per_sec(Gbit) == pytest.approx(1e9)

    def test_three_gigabit_nic(self):
        assert bits_per_sec(3 * Gbit) == pytest.approx(3e9)


class TestSumLeft:
    def test_rounds_after_each_addition(self):
        # 1e16 + 1.0 rounds back to 1e16, so a left fold ends at 0.0;
        # Python 3.12's compensated sum() reads 1.0 on the same input.
        assert sum_left([1e16, 1.0, -1e16]) == 0.0

    def test_matches_an_explicit_left_fold(self):
        values = [0.1, 0.2, 0.3, 1e-17, 5.0, -0.6]
        total = 0
        for value in values:
            total = total + value
        assert sum_left(values).hex() == total.hex()

    def test_empty_and_integer_inputs_keep_sum_types(self):
        assert sum_left([]) == 0 and isinstance(sum_left([]), int)
        assert sum_left(iter([1, 2, 3])) == 6
