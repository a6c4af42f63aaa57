"""Deterministic random-number plumbing.

Every stochastic choice in a campaign (fault locations, injection times,
intermittent-fault activations) derives from the campaign seed, so a
campaign re-run with the same seed produces the same experiment plan —
the property that makes the ``parentExperiment`` re-run workflow of the
paper (re-running experiment E1 as E2 in detail mode) reproduce the same
fault.  The streams are numpy's, computed by :mod:`repro.pcg64`.
"""

from __future__ import annotations

import struct

from ..pcg64 import PCG64, entropy_words, seed_sequence

_MASK32 = 0xFFFFFFFF


def campaign_rng(seed: int) -> PCG64:
    """The plan-generation stream of a campaign."""
    return PCG64(seed)


def experiment_seeds(campaign_seed: int, count: int) -> list[int]:
    """The stable per-experiment sub-seeds of experiments ``0 ..
    count-1`` (for intermittent fault activations and any other in-run
    randomness): entry ``i`` equals
    ``np.random.SeedSequence([campaign_seed, i]).generate_state(1)[0]``.

    The SeedSequence hash runs once over all indices, packed one per
    64-bit lane of a single int, instead of once per experiment.
    """
    words = entropy_words(campaign_seed)
    if count > 1 << 32:
        raise ValueError("at most 2**32 experiments per campaign")
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * count, "little")
    lanes = f"<{count}Q"
    indices = int.from_bytes(struct.pack(lanes, *range(count)), "little")
    # SeedSequence's entropy: the seed's words, then the index's word.
    entropy = [word * ones for word in words] + [indices]
    (state,) = seed_sequence(entropy, 1, ones, _MASK32 * ones)
    return list(struct.unpack(lanes, state.to_bytes(8 * count, "little")))
