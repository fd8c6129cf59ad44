"""Counter-based deterministic random streams.

Every stream is addressed by (seed, stream id, index...) through a
SeedSequence spawn key feeding the Philox counter-based bit generator, so
the sample at one address never depends on which other addresses were
generated, in what order, or on how many workers did the generating.
"""

from __future__ import annotations

import numpy as np

# Stream ids; keep globally unique so no two call sites share a stream.
STREAM_HAAR = 0
STREAM_GINIBRE = 1
STREAM_FIXED_PURITY = 2
STREAM_SEPARABLE = 3
STREAM_UNITARY = 4
STREAM_SETTING = 5
STREAM_BOOTSTRAP = 6
STREAM_TRIAL = 7


def _split_u64(value: int) -> tuple[int, int]:
    v = int(value) & 0xFFFFFFFFFFFFFFFF
    return v >> 32, v & 0xFFFFFFFF


def _seed_sequence(seed: int, stream: int, index: tuple[int, ...]) -> np.random.SeedSequence:
    """The SeedSequence at address (seed, stream, index...)."""
    if int(seed) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    key = (int(stream),)
    for part in index:
        key += _split_u64(part)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def rng_at(seed: int, stream: int, *index: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, stream, index...)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream, index)))


def derive_seed(seed: int, stream: int, *index: int) -> int:
    """A fresh 64-bit seed deterministically derived from an address."""
    words = _seed_sequence(seed, stream, index).generate_state(2, dtype=np.uint64)
    return int(words[0] ^ words[1])
