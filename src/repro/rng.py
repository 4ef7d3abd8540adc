"""Deterministic random-number streams.

Every stochastic component of the simulator (server service jitter, workload
think time, irqbalance tie-breaking) draws from its own named substream so
that

* a whole experiment is reproducible from a single integer seed, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing components (stream independence), which keeps A/B policy
  comparisons paired: both policies see identical server-side jitter.

Each substream is a PCG64 (XSL-RR 128/64) generator seeded through the
SeedSequence entropy-mixing scheme, keyed by ``(seed, stable_hash(name))``.
:class:`Pcg64Stream` implements both in Python integers and reproduces,
bit for bit, the reference draws pinned by ``tests/test_rng.py``: every
quick golden and every paired A/B comparison depends on them (DESIGN.md,
"RNG streams").
"""

from __future__ import annotations

import typing as t

__all__ = ["Pcg64Stream", "RngFactory", "hash_unit", "stable_hash"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence: a pool of four 32-bit words, mixed by two multiplicative
# hashes (one to absorb entropy, one to draw the output state).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _words32(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer (``[0]`` for 0)."""
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_words(seed: int, key: int) -> list[int]:
    """Four 64-bit seed words for ``seed`` with spawn key ``(key,)``.

    The run entropy is zero-padded to the pool size before the spawn key is
    appended, so a spawned stream never collides with a longer seed.
    """
    entropy = _words32(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += _words32(key)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64Stream:
    """One PCG64 substream with the three draws model code makes.

    ``random()`` feeds on whole 64-bit outputs.  ``integers`` and
    ``shuffle`` feed on 32-bit draws: a 32-bit draw returns the low half of
    a fresh 64-bit output and keeps the high half for the next 32-bit draw,
    which ``random()`` neither uses nor clears.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int, key: int) -> None:
        w0, w1, w2, w3 = _seed_words(seed, key)
        # Words 0-1 are the initial state, words 2-3 the stream selector.
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._inc = inc
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self._half: int | None = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        rot = state >> 122
        word = ((state >> 64) ^ state) & _MASK64
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A uniform float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``; the span must fit 32 bits.

        Lemire's bounded multiply over 32-bit draws, rejecting the few
        low products that would bias the result.
        """
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(
                f"integers({low}, {high}): need 0 < high - low <= 2**32"
            )
        if span == 1:
            return low  # a one-value range consumes no draw
        product = self._next32() * span
        if product & _MASK32 < span:
            threshold = ((1 << 32) - span) % span
            while product & _MASK32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)

    def shuffle(self, items: list[t.Any]) -> None:
        """Shuffle ``items`` in place: Fisher-Yates from the last index
        down, each swap index drawn by masked rejection."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]


class RngFactory:
    """Factory of named, independent :class:`Pcg64Stream` streams.

    >>> rngs = RngFactory(seed=7)
    >>> a = rngs.stream("disk")
    >>> b = rngs.stream("disk")   # same name -> same spawn, fresh state
    >>> a.random() == b.random()
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory derives all streams from."""
        return self._seed

    def stream(self, name: str) -> Pcg64Stream:
        """Return a fresh generator for substream ``name``.

        Calling twice with the same name returns an identically-seeded (but
        independent-state) generator, so components must each hold onto the
        stream they are given rather than re-requesting it mid-run.
        """
        return Pcg64Stream(self._seed, _stable_hash(name))

    def fork(self, salt: int) -> "RngFactory":
        """Derive a factory for a sub-experiment (e.g. one sweep point)."""
        return RngFactory(seed=(self._seed * 1_000_003 + int(salt)) & 0x7FFFFFFF)


def _stable_hash(name: str) -> int:
    """A process-stable 32-bit hash (``hash()`` is salted per interpreter)."""
    acc = 2166136261
    for byte in name.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


def stable_hash(name: str) -> int:
    """Public face of :func:`_stable_hash` for other subsystems.

    The scenario generator keys its per-knob :func:`hash_unit` draws by
    ``stable_hash(knob_name)`` so every draw is a pure function of
    ``(seed, scenario index, knob)`` — independent of sampling order and
    of the process doing the sampling.
    """
    return _stable_hash(name)


def hash_unit(*keys: int) -> float:
    """Deterministic uniform-ish value in [0, 1) from integer keys.

    Used where a random *property of an object* (e.g. whether a given file
    offset is in a server's page cache) must be identical across paired A/B
    runs regardless of the order events happen to occur in: keying by the
    object rather than by draw order keeps policy comparisons paired.
    """
    acc = 0x9E3779B97F4A7C15
    for key in keys:
        acc ^= (key & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15 + (acc << 6) + (
            acc >> 2
        )
        acc &= 0xFFFFFFFFFFFFFFFF
        # splitmix64 finalizer round
        acc = (acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 31
    return acc / 2**64
