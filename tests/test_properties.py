"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import AnalysisParams
from repro.des import Environment, Resource
from repro.hw.cache import PrivateCache
from repro.net.ip_options import (
    MAX_ENCODABLE_CORES,
    decode_aff_core_id,
    encode_aff_core_id,
)
from repro.net.tcp import segment_sizes
from repro.pfs.layout import StripeLayout
from repro.rng import hash_unit
from repro.units import format_size, parse_size


# ---------------------------------------------------------------------------
# IP options (Fig. 4 encoding)
# ---------------------------------------------------------------------------


@given(core=st.integers(min_value=0, max_value=MAX_ENCODABLE_CORES - 1))
def test_ip_option_roundtrip(core):
    assert decode_aff_core_id(encode_aff_core_id(core)) == core


@given(core=st.integers(min_value=0, max_value=MAX_ENCODABLE_CORES - 1))
def test_ip_option_field_is_32bit_aligned(core):
    assert len(encode_aff_core_id(core)) % 4 == 0


@given(
    core=st.integers(min_value=0, max_value=MAX_ENCODABLE_CORES - 1),
    nops=st.integers(min_value=0, max_value=8),
)
def test_ip_option_survives_leading_nops(core, nops):
    options = bytes([0x01] * nops) + encode_aff_core_id(core)
    assert decode_aff_core_id(options) == core


# ---------------------------------------------------------------------------
# Striping layout
# ---------------------------------------------------------------------------

# Strip sizes are >= 512 B so pathological inputs don't generate millions
# of extents (real strip sizes are tens of KiB).
layout_args = st.tuples(
    st.integers(min_value=512, max_value=1 << 20),  # strip size
    st.integers(min_value=1, max_value=64),  # servers
    st.integers(min_value=0, max_value=1 << 24),  # offset
    st.integers(min_value=1, max_value=1 << 21),  # size
)


@given(layout_args)
def test_layout_extents_partition_the_range(args):
    strip, servers, offset, size = args
    layout = StripeLayout(strip, servers)
    extents = layout.extents(offset, size)
    assert sum(e.size for e in extents) == size
    position = offset
    for extent in extents:
        assert extent.offset == position
        assert 1 <= extent.size <= strip
        position += extent.size


@given(layout_args)
def test_layout_extents_respect_strip_boundaries(args):
    strip, servers, offset, size = args
    layout = StripeLayout(strip, servers)
    for extent in layout.extents(offset, size):
        start_strip = extent.offset // strip
        end_strip = (extent.offset + extent.size - 1) // strip
        assert start_strip == end_strip == extent.strip_id
        assert extent.server == extent.strip_id % servers


@given(layout_args)
def test_layout_extent_count_formula(args):
    strip, servers, offset, size = args
    layout = StripeLayout(strip, servers)
    first = offset // strip
    last = (offset + size - 1) // strip
    assert len(layout.extents(offset, size)) == last - first + 1


# ---------------------------------------------------------------------------
# TCP segmentation
# ---------------------------------------------------------------------------


@given(
    nbytes=st.integers(min_value=1, max_value=1 << 20),
    mss=st.integers(min_value=256, max_value=65536),
)
def test_segment_sizes_partition(nbytes, mss):
    sizes = segment_sizes(nbytes, mss)
    assert sum(sizes) == nbytes
    assert all(1 <= s <= mss for s in sizes)
    assert len(sizes) == -(-nbytes // mss)  # ceil division
    # Only the last segment may be short.
    assert all(s == mss for s in sizes[:-1])


# ---------------------------------------------------------------------------
# Private cache LRU
# ---------------------------------------------------------------------------


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "touch", "remove"]),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=200,
    ),
)
def test_cache_never_exceeds_capacity_and_matches_reference(capacity, ops):
    cache = PrivateCache(0, capacity)
    reference: list[int] = []  # MRU at the end
    for op, strip in ops:
        if op == "insert":
            evicted = cache.insert(strip)
            if strip in reference:
                reference.remove(strip)
                assert evicted == []
            else:
                expected_evicted = []
                while len(reference) >= capacity:
                    expected_evicted.append(reference.pop(0))
                assert evicted == expected_evicted
            reference.append(strip)
        elif op == "touch" and strip in reference:
            cache.touch(strip)
            reference.remove(strip)
            reference.append(strip)
        elif op == "remove":
            cache.remove(strip)
            if strip in reference:
                reference.remove(strip)
        assert len(cache) == len(reference) <= capacity
        for item in reference:
            assert item in cache


# ---------------------------------------------------------------------------
# DES kernel
# ---------------------------------------------------------------------------


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
@settings(max_examples=50)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        env.timeout(delay).callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    capacity=st.integers(min_value=1, max_value=4),
    jobs=st.lists(
        st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=30
    ),
)
@settings(max_examples=50)
def test_resource_capacity_never_exceeded(capacity, jobs):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    peak = [0]

    def worker(duration):
        with resource.request() as req:
            yield req
            peak[0] = max(peak[0], resource.in_use)
            yield env.timeout(duration)

    for duration in jobs:
        env.process(worker(duration))
    env.run()
    assert peak[0] <= capacity
    assert resource.in_use == 0
    # Work conservation: makespan of an M-server queue is bounded by the
    # serial sum and at least the max job.
    assert max(jobs) - 1e-9 <= env.now <= sum(jobs) + 1e-9


@given(delays=st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=20))
@settings(max_examples=50)
def test_allof_fires_at_max(delays):
    from repro.des import AllOf

    env = Environment()
    timeouts = [env.timeout(d) for d in delays]
    all_event = AllOf(env, timeouts)
    fired = {}
    all_event.callbacks.append(lambda ev: fired.setdefault("all", env.now))
    env.run()
    assert fired["all"] == max(delays)


@given(
    parties=st.integers(min_value=1, max_value=8),
    delays=st.lists(
        st.floats(min_value=0, max_value=100), min_size=1, max_size=8
    ),
)
@settings(max_examples=50)
def test_barrier_releases_at_last_arrival(parties, delays):
    from repro.des import Barrier

    if len(delays) < parties:
        delays = delays + [0.0] * (parties - len(delays))
    delays = delays[:parties]
    env = Environment()
    barrier = Barrier(env, parties)
    released = []

    def worker(env, delay):
        yield env.timeout(delay)
        yield barrier.wait()
        released.append(env.now)

    for delay in delays:
        env.process(worker(env, delay))
    env.run()
    assert len(released) == parties
    assert all(when == max(delays) for when in released)


# ---------------------------------------------------------------------------
# Analysis model (eqs. 3-9)
# ---------------------------------------------------------------------------

analysis_params = st.builds(
    AnalysisParams,
    n_cores=st.integers(min_value=2, max_value=64),
    n_servers=st.integers(min_value=1, max_value=256),
    strip_processing=st.floats(min_value=1e-7, max_value=1e-3),
    strip_migration=st.floats(min_value=1e-7, max_value=1e-2),
    rest_time=st.floats(min_value=0.0, max_value=10.0),
    n_requests=st.integers(min_value=1, max_value=1000),
)


@given(analysis_params)
def test_gap_sign_matches_m_vs_p(params):
    gap = params.performance_gap()
    if params.strip_migration > params.strip_processing:
        assert gap > 0
    elif params.strip_migration < params.strip_processing:
        assert gap < 0


@given(analysis_params, st.integers(min_value=2, max_value=8))
def test_stream_times_scale_linearly_in_requests(params, factor):
    import dataclasses

    bigger = dataclasses.replace(
        params, n_requests=params.n_requests * factor
    )
    small_var = params.t_source_aware_stream() - params.rest_time
    big_var = bigger.t_source_aware_stream() - bigger.rest_time
    assert big_var == pytest_approx(small_var * factor)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9)


# ---------------------------------------------------------------------------
# Misc deterministic helpers
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1 << 62), max_size=5))
def test_hash_unit_in_range_and_deterministic(keys):
    value = hash_unit(*keys)
    assert 0.0 <= value < 1.0
    assert hash_unit(*keys) == value


@given(
    st.integers(min_value=0, max_value=1 << 40).filter(
        lambda n: n < 1024 or n % 1024 == 0
    )
)
def test_parse_format_roundtrip_for_round_sizes(nbytes):
    assert parse_size(format_size(nbytes)) == nbytes
