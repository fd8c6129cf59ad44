"""Counter-based deterministic random streams.

Every stream is addressed by (seed, stream id, index...) through a
SeedSequence spawn key feeding the Philox counter-based bit generator, so
the sample at one address never depends on which other addresses were
generated, in what order, or on how many workers did the generating.
"""

from __future__ import annotations

import numpy as np

from .jsonio import _integer

# Stream ids; keep globally unique so no two call sites share a stream.
STREAM_HAAR = 0
STREAM_GINIBRE = 1
STREAM_FIXED_PURITY = 2
STREAM_SEPARABLE = 3
STREAM_UNITARY = 4
STREAM_SETTING = 5
STREAM_BOOTSTRAP = 6
STREAM_TRIAL = 7


def _seed_sequence(seed: int, stream: int, index: tuple[int, ...]) -> np.random.SeedSequence:
    """The SeedSequence at address (seed, stream, index...); each index part is two key words."""
    seed = _integer("seed", seed, 0)
    key = (int(stream),)
    for part in index:
        part = _integer("index", part, 0, 2**64 - 1)
        key += (part >> 32, part & 0xFFFFFFFF)
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def rng_at(seed: int, stream: int, *index: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, stream, index...).

    seed must be an integer >= 0 and each index part one in [0, 2**64);
    anything else raises ValueError rather than aliasing another address.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream, index)))


def derive_seed(seed: int, stream: int, *index: int) -> int:
    """A fresh 64-bit seed deterministically derived from an address."""
    words = _seed_sequence(seed, stream, index).generate_state(2, dtype=np.uint64)
    return int(words[0] ^ words[1])
