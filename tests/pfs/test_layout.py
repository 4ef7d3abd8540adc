"""Tests for the round-robin striping layout."""

import pytest

from repro.errors import LayoutError
from repro.pfs import StripeLayout
from repro.units import KiB, MiB


def servers_of(layout, offset, size):
    """The distinct servers a read of ``(offset, size)`` involves."""
    return {extent.server for extent in layout.extents(offset, size)}


class TestBasics:
    def test_server_for_round_robin(self):
        layout = StripeLayout(strip_size=64 * KiB, n_servers=4)
        assert [layout.server_for(i) for i in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_invalid_construction(self):
        with pytest.raises(LayoutError):
            StripeLayout(strip_size=0, n_servers=4)
        with pytest.raises(LayoutError):
            StripeLayout(strip_size=64, n_servers=0)

    def test_negative_args_rejected(self):
        layout = StripeLayout(strip_size=64, n_servers=4)
        with pytest.raises(LayoutError):
            layout.server_for(-1)


class TestExtents:
    def test_aligned_read_covers_whole_strips(self):
        layout = StripeLayout(strip_size=64 * KiB, n_servers=8)
        extents = layout.extents(0, 1 * MiB)
        assert len(extents) == 16
        assert all(e.size == 64 * KiB for e in extents)
        assert [e.server for e in extents[:9]] == [0, 1, 2, 3, 4, 5, 6, 7, 0]

    def test_unaligned_read_produces_partial_edges(self):
        layout = StripeLayout(strip_size=100, n_servers=4)
        extents = layout.extents(50, 200)
        assert [(e.strip_id, e.size) for e in extents] == [
            (0, 50),
            (1, 100),
            (2, 50),
        ]

    def test_extent_sizes_sum_to_request(self):
        layout = StripeLayout(strip_size=64 * KiB, n_servers=5)
        extents = layout.extents(13, 777_777)
        assert sum(e.size for e in extents) == 777_777

    def test_extents_are_contiguous(self):
        layout = StripeLayout(strip_size=4096, n_servers=3)
        extents = layout.extents(1000, 20_000)
        position = 1000
        for extent in extents:
            assert extent.offset == position
            position += extent.size

    def test_invalid_extent_requests(self):
        layout = StripeLayout(strip_size=64, n_servers=4)
        with pytest.raises(LayoutError):
            layout.extents(0, 0)
        with pytest.raises(LayoutError):
            layout.extents(-1, 10)

    def test_servers_touched(self):
        layout = StripeLayout(strip_size=64 * KiB, n_servers=48)
        # A 1 MiB read touches 16 distinct servers out of 48.
        assert len(servers_of(layout, 0, 1 * MiB)) == 16


class TestRequestStream:
    def test_sequential_requests_rotate_servers(self):
        layout = StripeLayout(strip_size=64 * KiB, n_servers=48)
        first = servers_of(layout, 0, 1 * MiB)
        second = servers_of(layout, 1 * MiB, 1 * MiB)
        assert first != second
