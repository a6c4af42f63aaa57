"""Deterministic random-number plumbing.

Every stochastic choice in a campaign (fault locations, injection times,
intermittent-fault activations) derives from the campaign seed, so a
campaign re-run with the same seed produces the same experiment plan —
the property that makes the ``parentExperiment`` re-run workflow of the
paper (re-running experiment E1 as E2 in detail mode) reproduce the same
fault.
"""

from __future__ import annotations

import operator

import numpy as np

# numpy's SeedSequence constants (4-word pool, 32-bit words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def campaign_rng(seed: int) -> np.random.Generator:
    """The plan-generation stream of a campaign."""
    return np.random.default_rng(seed)


def experiment_seeds(campaign_seed: int, count: int) -> list[int]:
    """The stable per-experiment sub-seeds of experiments ``0 ..
    count-1`` (for intermittent fault activations and any other in-run
    randomness): entry ``i`` equals
    ``np.random.SeedSequence([campaign_seed, i]).generate_state(1)[0]``.

    The SeedSequence hash runs once over all indices as ``uint64``
    arrays masked to 32 bits, instead of building one SeedSequence per
    experiment.  Its multiplier chain does not depend on the data, so it
    stays a plain int.
    """
    seed = operator.index(campaign_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if count > 1 << 32:
        raise ValueError("at most 2**32 experiments per campaign")
    # SeedSequence's entropy: the seed's 32-bit words (least significant
    # first, one zero word for 0), then the index's single word.
    words = []
    while True:
        words.append(np.uint64(seed & _MASK32))
        seed >>= 32
        if not seed:
            break
    words.append(np.arange(count, dtype=np.uint64))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * np.uint64(hash_const)) & np.uint64(_MASK32)
        return value ^ (value >> np.uint64(16))

    def mix(x, y):
        # L*x - R*y (mod 2**32) as a sum of masked products: no uint64
        # wrap-around, so numpy scalars raise no overflow warning.
        result = (
            (x * np.uint64(_MIX_MULT_L)) & np.uint64(_MASK32)
        ) + ((y * np.uint64(-_MIX_MULT_R & _MASK32)) & np.uint64(_MASK32))
        result &= np.uint64(_MASK32)
        return result ^ (result >> np.uint64(16))

    pool = [
        hashmix(words[i] if i < len(words) else np.uint64(0)) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(1): the first pool word, hashed once more.
    state = (pool[0] ^ np.uint64(_INIT_B)) * np.uint64((_INIT_B * _MULT_B) & _MASK32)
    state &= np.uint64(_MASK32)
    state ^= state >> np.uint64(16)
    return state.tolist()
