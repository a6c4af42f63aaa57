"""numpy's seeded random streams, draw for draw, in plain Python.

A seed runs through numpy's ``SeedSequence`` hash into a PCG64
generator (128-bit LCG, XSL-RR output) whose ``integers`` and ``random``
follow numpy's ``Generator``.  Stored plans and rows were made with
numpy's stream, so the two must never drift apart; the tests hold numpy
as the oracle.  A leaf module: the core's plan stream, the targets'
intermittent faults and the workloads' environment faults all draw from
it.
"""

from __future__ import annotations

import operator

# numpy's SeedSequence constants (4-word pool, 32-bit words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64 (numpy's default bit generator).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_LIMIT = 1 << 63


def entropy_words(seed) -> list[int]:
    """A seed's 32-bit entropy words, least significant first (one zero
    word for 0), as SeedSequence splits an integer."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            return words


def seed_sequence(words: list[int], n_words: int, ones: int, mask: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words)`` over packed
    lanes: each value is an int of 64-bit lanes, each lane holding one
    32-bit word, ``ones`` has a 1 in every lane and ``mask`` 2**32 - 1.
    One lane (``ones=1``) is the plain hash; many lanes hash many
    entropy vectors at once.  A 32-bit product fits its 64-bit lane, so
    masking after each product keeps the lanes apart, and ``L*x - R*y``
    is ``L*x + (2**32 - R)*y`` so that nothing borrows across lanes."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const * ones
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & mask
        return value ^ ((value >> 16) & mask)

    def mix(x, y):
        result = (((x * _MIX_MULT_L) & mask) + ((y * (-_MIX_MULT_R & _MASK32)) & mask)) & mask
        return result ^ ((result >> 16) & mask)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ (hash_const * ones)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & mask
        state.append(value ^ ((value >> 16) & mask))
    return state


class PCG64:
    """numpy's ``default_rng(seed)``: the same values from the same
    calls, as Python ints and floats.

    ``integers`` draws 32 bits at a time for ranges up to 2**32 (the
    low half of a 64-bit output first, the high half kept for the next
    such draw, as numpy's ``next_uint32`` does) and 64 bits otherwise,
    both by Lemire's bounded method; ``random`` takes the top 53 bits of
    a 64-bit output and leaves the kept half alone.
    """

    __slots__ = ("_state", "_inc", "_uint32")

    def __init__(self, seed: int) -> None:
        w = seed_sequence(entropy_words(seed), 8, 1, _MASK32)
        # generate_state(4, uint64): the words paired little-endian.
        initstate = (w[0] | w[1] << 32) << 64 | (w[2] | w[3] << 32)
        initseq = (w[4] | w[5] << 32) << 64 | (w[6] | w[7] << 32)
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._uint32: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        kept = self._uint32
        if kept is not None:
            self._uint32 = None
            return kept
        value = self._next64()
        self._uint32 = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """A float in [0, 1)."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) without ``high``."""
        if high is None:
            low, high = 0, low
        if low < _INT64_MIN or high > _INT64_LIMIT:
            raise ValueError("bounds out of range for int64")
        span = high - low
        if span <= 1:
            if span == 1:
                return low
            raise ValueError("low >= high")
        if span < 1 << 32:
            m = self._next32() * span
            if (m & _MASK32) < span:
                threshold = ((1 << 32) - span) % span
                while (m & _MASK32) < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        if span == 1 << 32:
            return low + self._next32()
        if span < 1 << 64:
            m = self._next64() * span
            if (m & _MASK64) < span:
                threshold = ((1 << 64) - span) % span
                while (m & _MASK64) < threshold:
                    m = self._next64() * span
            return low + (m >> 64)
        return low + self._next64()
