"""Tests for deterministic RNG streams."""

import hashlib

from repro.rng import RngFactory


def test_same_seed_same_stream():
    a = RngFactory(42).stream("disk")
    b = RngFactory(42).stream("disk")
    assert [float(a.random()) for _ in range(5)] == [
        float(b.random()) for _ in range(5)
    ]


def test_different_names_differ():
    rngs = RngFactory(42)
    a = rngs.stream("disk")
    b = rngs.stream("network")
    assert [float(a.random()) for _ in range(3)] != [
        float(b.random()) for _ in range(3)
    ]


def test_different_seeds_differ():
    a = RngFactory(1).stream("disk")
    b = RngFactory(2).stream("disk")
    assert float(a.random()) != float(b.random())


def test_fork_is_deterministic():
    a = RngFactory(7).fork(3).stream("x")
    b = RngFactory(7).fork(3).stream("x")
    assert float(a.random()) == float(b.random())


def test_fork_changes_streams():
    base = RngFactory(7)
    a = base.fork(1).stream("x")
    b = base.fork(2).stream("x")
    assert float(a.random()) != float(b.random())


def test_seed_property():
    assert RngFactory(99).seed == 99


# Known answers, recorded from the streams as first shipped.  Every
# SAIs-vs-irqbalance pair and every quick golden depends on these draws,
# so a stream implementation must reproduce them bit for bit.


def test_known_random_draws():
    s = RngFactory(0).stream("server0")
    assert [float(s.random()) for _ in range(3)] == [
        0.0905312137073776,
        0.10175963691695833,
        0.1549462450550766,
    ]


def test_known_integers_cross_a_kept_half():
    # A 32-bit draw keeps the high half of its 64-bit output for the next
    # 32-bit draw; random() in between neither uses nor clears it.
    s = RngFactory(7).fork(3).stream("migration_client0")
    assert [
        int(s.integers(0, 8)),
        float(s.random()),
        int(s.integers(0, 8)),
        int(s.integers(0, 8)),
    ] == [3, 0.7405489104165055, 6, 6]


def test_known_shuffle():
    s = RngFactory(42).stream("ior")
    order = list(range(16))
    s.shuffle(order)
    assert order == [10, 13, 5, 2, 11, 15, 3, 7, 4, 12, 0, 1, 8, 14, 9, 6]


def test_known_long_stream_digest():
    s = RngFactory(2**31 - 1).stream("disk")
    digest = hashlib.sha256()
    for _ in range(10_000):
        digest.update(float(s.random()).hex().encode())
    assert digest.hexdigest() == (
        "1aab30fda926c3f48ba093eaeb118186b96d3e893961fd44b5c8df21fea25d00"
    )
