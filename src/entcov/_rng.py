"""Counter-based deterministic random streams.

Every stream is addressed by (seed, stream id, index...): the Philox
counter-based bit generator keyed as numpy's
``SeedSequence(entropy=seed, spawn_key=(stream, hi, lo, ...))`` keys it, so
the sample at one address never depends on which other addresses were
generated, in what order, or on how many workers did the generating.
``_keys`` keys one address by numpy's SeedSequence itself and derives the
keys of many addresses in one vectorised pass of its hash, ``_seed_keys``
those of many seeds in one pass of the same hash, and ``_rekeyed`` serves
given keys through one re-keyed generator; ``rng_at`` and ``derive_seed``
are the one-address case.
"""

from __future__ import annotations

import functools

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

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which ``_hash``
# runs on uint32 columns: a pool of four uint32 words, the entropy hash
# (INIT_A, MULT_A), the mixer and the output hash (INIT_B, MULT_B).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MAX_INDEX = 2**64 - 1


@functools.lru_cache(maxsize=256)
def _seed_sequence(seed: int, stream: int, *words: int) -> np.random.SeedSequence:
    """numpy's ``SeedSequence(seed, spawn_key=(stream, *words))``, cached.

    With no words its pool is the one every address of a (seed, stream)
    starts from, so a loop over indices or over ``rng_at`` calls builds it
    once; a repeated single address is a cache hit too.  The pool is made
    read-only, since every caller shares it.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(stream, *words))
    seq.pool.setflags(write=False)
    return seq


def _index_words(indices) -> tuple[int, list]:
    """(number of addresses, spawn-key words of their index parts).

    indices is an integer array, 1-D for one part per address, or a
    sequence of index tuples; every part must be an integer in [0, 2**64).
    Each part contributes its high and low 32-bit words: uint32 columns, or
    Python ints when there is a single address.
    """
    if isinstance(indices, np.ndarray):
        indices = indices.reshape(len(indices), -1)
        if len(indices) > 1 and indices.dtype.kind in "ui" and indices.min(initial=0) >= 0:
            return len(indices), _columns(indices.astype(np.uint64))
        indices = indices.tolist()  # one address, or parts the integer rule checks one by one
    rows = [[_integer("index", part, 0, _MAX_INDEX) for part in row] for row in indices]
    if len(rows) == 1:
        return 1, [word for part in rows[0] for word in (part >> 32, part & _MASK32)]
    return len(rows), _columns(np.array(rows, dtype=np.uint64).reshape(len(rows), -1))


def _columns(parts: np.ndarray) -> list[np.ndarray]:
    """The high and low 32-bit words of each column of an (n, parts) uint64 array."""
    words = []
    for column in parts.T:
        words += [(column >> 32).astype(np.uint32), (column & _MASK32).astype(np.uint32)]
    return words


def _consts(const: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 column of the hash constants const, const * mult, ..."""
    out = []
    for _ in range(count):
        out.append(const)
        const = const * mult & _MASK32
    return np.array(out, dtype=np.uint32)[:, None]


_OUTPUT_CONSTS = _consts(_INIT_B, _MULT_B, _POOL_SIZE + 1)
# Multiplying a hash constant by these gives it and its next four values.
_POWERS_A = _consts(1, _MULT_A, _POOL_SIZE + 1)


def _pool_const(seed: int) -> int:
    """The entropy hash constant once the pool of (seed, stream) is built.

    numpy pads the seed to at least the pool size, appends the stream id
    and hashes each word into every pool word, so the constant has advanced
    once per pool word per word.
    """
    seed_words = max(_POOL_SIZE, (seed.bit_length() + 31) // 32)
    return _INIT_A * pow(_MULT_A, _POOL_SIZE * (seed_words + 1), 2**32) & _MASK32


def _hash(pool: np.ndarray, const: np.ndarray, words) -> np.ndarray:
    """The (m, 2) uint64 Philox keys of m addresses from their pools.

    numpy's SeedSequence loop on uint32 columns, the four pool words at
    once: pool is (4, m), one column per address (or one broadcast column),
    const the (1, m) hash constants that follow each pool, and every word
    (m,) or a scalar.  Mixing a word into pool word d uses the d-th of the
    next hash constants.
    """
    for word in words:
        consts = const * _POWERS_A
        const = consts[-1:]
        hashed = (word ^ consts[:-1]) * consts[1:]
        hashed ^= hashed >> 16
        pool = pool * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
        pool ^= pool >> 16
    out = (pool ^ _OUTPUT_CONSTS[:-1]) * _OUTPUT_CONSTS[1:]
    out = (out ^ out >> 16).astype(np.uint64)
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=-1)


def _keys(seed: int, stream: int, indices) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of the addresses (seed, stream, *index) for index in indices.

    Row k equals ``np.random.SeedSequence(entropy=seed, spawn_key=(stream,
    hi_0, lo_0, hi_1, lo_1, ...)).generate_state(2, np.uint64)`` for the
    parts of indices[k], with hi/lo the 32-bit halves of each part.  seed
    must be an integer >= 0; see ``_index_words`` for indices.  No index
    gives a (0, 2) array.
    """
    seed = _integer("seed", seed, 0)
    if len(indices) == 0:
        return np.empty((0, 2), dtype=np.uint64)
    n, words = _index_words(indices)
    if n == 1:
        return _seed_sequence(seed, int(stream), *words).generate_state(2, np.uint64)[None]
    pool = _seed_sequence(seed, int(stream)).pool[:, None]
    const = np.array([[_pool_const(seed)]], dtype=np.uint32)
    return np.broadcast_to(_hash(pool, const, words), (n, 2))


def _seed_keys(seeds, stream: int, indices) -> np.ndarray:
    """The (len(seeds) * n, 2) keys of (seed, stream, *index), for each seed every index.

    Row k * n + i equals ``_keys(seeds[k], stream, indices)[i]``: the pools
    of the seeds are stacked, one column per address, and hashed in one
    pass, each column from its own seed's hash constant.  Every seed must be
    an integer >= 0.
    """
    seeds = [_integer("seed", seed, 0) for seed in seeds]
    if not seeds or len(indices) == 0:
        return np.empty((0, 2), dtype=np.uint64)
    n, words = _index_words(indices)
    pools = np.stack([_seed_sequence(seed, int(stream)).pool for seed in seeds], axis=1)
    const = np.array([[_pool_const(seed) for seed in seeds]], dtype=np.uint32)
    if n > 1:
        pools, const = np.repeat(pools, n, axis=1), np.repeat(const, n, axis=1)
        words = [np.tile(word, len(seeds)) for word in words]
    return _hash(pools, const, words)


@functools.cache
def _key_seed() -> type:
    """The seed-sequence type that hands Philox a key derived by ``_keys``.

    Built on first use: numpy's ISeedSequence base lives in numpy.random,
    whose import (about 10 ms and 6 MiB) commands that draw nothing skip.
    """

    class KeySeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySeed


def _generator(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_key_seed()(key)))


def _rekeyed(keys: np.ndarray):
    """Yield a generator keyed by each row of the (n, 2) Philox keys, in order.

    One generator is re-keyed per key, so consume each before asking for
    the next.  Re-keying restores the state a fresh Philox has: counter 0,
    the new key, an empty buffer and no spare 32-bit half, so the draws
    equal those of a generator built on the key.  The state is held as
    Python ints, which the setter reads about twice as fast as numpy
    scalars; the values, and so the draws, are the same.
    """
    if len(keys) == 0:
        return
    rng = _generator(keys[0])
    fresh = rng.bit_generator.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    yield rng
    for key in keys[1:].tolist():
        fresh["state"]["key"] = key
        rng.bit_generator.state = fresh
        yield rng


def rng_at(seed: int, stream: int, *index: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, stream, index...).

    seed must be an integer >= 0 and each index part one in [0, 2**64);
    anything else raises ValueError rather than aliasing another address.
    """
    return _generator(_keys(seed, stream, [index])[0])


def derive_seed(seed: int, stream: int, *index: int) -> int:
    """A fresh 64-bit seed deterministically derived from an address."""
    key = _keys(seed, stream, [index])[0]
    return int(key[0] ^ key[1])
