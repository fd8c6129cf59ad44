import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcov._rng import (
    STREAM_FIXED_PURITY,
    STREAM_GINIBRE,
    STREAM_TRIAL,
    _derived_seeds,
    _generator,
    _keys,
    _rekeyed,
    _seed_keys,
    derive_seed,
    rng_at,
)
from entcov.ensembles import (
    REJECTION_BLOCK,
    _ROUND,
    EnsembleSpec,
    fixed_purity,
    ginibre,
    haar_pure,
    separable_mixture,
)
from entcov.sampler import shots_for_verdict
from entcov.states import canonical

from oracles import state_fields


@pytest.mark.parametrize("fn", [rng_at, derive_seed])
def test_negative_seed_rejected_with_one_message(fn):
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        fn(-1, STREAM_TRIAL, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ginibre(1, 2**64, 2),  # a 64-bit mask would alias index 0
        lambda: ginibre(1, -1, 2),  # ... and index 2**64 - 1
        lambda: haar_pure(1, 1.5),  # int() would alias index 1
        lambda: rng_at(1, STREAM_GINIBRE, 0, 2**64),
        lambda: separable_mixture(1, 2**64, 2),
        lambda: separable_mixture(1, -1, 2),
    ],
    ids=[
        "index-2**64",
        "index--1",
        "index-1.5",
        "second-part-2**64",
        "separable-index-2**64",
        "separable-index--1",
    ],
)
def test_stream_index_outside_u64_rejected(call):
    message = r"^index must be an integer >= 0 and <= 18446744073709551615, got "
    with pytest.raises(ValueError, match=message):
        call()


def test_stream_index_range_ends_are_distinct_streams():
    last = rng_at(1, STREAM_GINIBRE, 2**64 - 1).standard_normal(4)
    first = rng_at(1, STREAM_GINIBRE, 0).standard_normal(4)
    assert not np.array_equal(last, first)
    assert np.array_equal(rng_at(1, STREAM_GINIBRE, np.uint64(7)).standard_normal(4),
                          rng_at(1, STREAM_GINIBRE, 7).standard_normal(4))


SINGLET = canonical("singlet")

# (field, call taking the bad value, a value just below the field's minimum)
ENTRY_POINTS = [
    ("count", lambda v: EnsembleSpec("ginibre", v, 1, rank=2), 0),
    ("seed", lambda v: EnsembleSpec("ginibre", 4, v, rank=2), -1),
    ("rank", lambda v: EnsembleSpec("ginibre", 4, 1, rank=v), 0),
    ("mixture_terms", lambda v: EnsembleSpec("separable_mixture", 4, 1, mixture_terms=v), 0),
    ("rank", lambda v: ginibre(1, 0, v), 0),
    ("index", lambda v: haar_pure(1, v), -1),
    ("seed", lambda v: haar_pure(v, 0), -1),
    ("terms", lambda v: separable_mixture(1, 0, v), 0),
    ("index", lambda v: fixed_purity(1, v, 0.5, 0.1), -1),
    ("seed", lambda v: rng_at(v, STREAM_TRIAL, 0), -1),
    ("index", lambda v: rng_at(1, STREAM_TRIAL, v), -1),
    ("seed", lambda v: derive_seed(v, STREAM_TRIAL, 0), -1),
    ("index", lambda v: derive_seed(1, STREAM_TRIAL, v), -1),
    ("trials", lambda v: shots_for_verdict(SINGLET, 2.0, 1, trials=v, required=1), 0),
    ("required", lambda v: shots_for_verdict(SINGLET, 2.0, 1, trials=4, required=v), 0),
    ("seed", lambda v: shots_for_verdict(SINGLET, 2.0, v, trials=4, required=4), -1),
    ("seed", lambda v: _seed_keys([0, v], STREAM_TRIAL, [(0,)]), -1),
]


@pytest.mark.parametrize("kind", ["bool", "fraction", "string", "below"])
@pytest.mark.parametrize(
    "field, call, below",
    ENTRY_POINTS,
    ids=[f"{k}-{field}" for k, (field, _, _) in enumerate(ENTRY_POINTS)],
)
def test_integer_rule_at_every_entry_point(field, call, below, kind):
    value = {"bool": True, "fraction": 2.5, "string": "3", "below": below}[kind]
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        call(value)


@pytest.mark.parametrize("value", [5, 2.0, np.float64(2.0)])
def test_rank_above_four_or_float_rejected(value):
    with pytest.raises(ValueError, match=r"^rank must be an integer >= 1 and <= 4, got "):
        ginibre(1, 0, value)


# Seeds of one word, of the four words the pool holds and beyond it; index
# parts at the edges of the two 32-bit halves and anywhere in [0, 2**64).
SEEDS = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**130))
PARTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


def seed_sequence(seed, stream, index):
    """numpy's own SeedSequence at an address, each index part split into its two 32-bit words."""
    key = (stream,)
    for part in index:
        key += (part >> 32, part & 0xFFFFFFFF)
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def addresses(n_parts, max_size=12):
    return st.lists(st.tuples(*[PARTS] * n_parts), min_size=1, max_size=max_size)


@settings(max_examples=200, deadline=None, database=None)
@given(seed=SEEDS, stream=st.integers(0, 7), n_parts=st.integers(0, 2), data=st.data())
def test_keys_equal_numpys_seed_sequence(seed, stream, n_parts, data):
    indices = data.draw(addresses(n_parts))
    expected = np.array(
        [seed_sequence(seed, stream, index).generate_state(2, np.uint64) for index in indices]
    )
    assert np.array_equal(_keys(seed, stream, indices), expected)
    assert np.array_equal(_keys(seed, stream, np.array(indices, dtype=np.uint64)), expected)
    if n_parts == 1:  # a 1-D integer array holds one part per address
        flat = np.array([part for (part,) in indices], dtype=np.uint64)
        assert np.array_equal(_keys(seed, stream, flat), expected)


@settings(max_examples=100, deadline=None, database=None)
@given(seeds=st.lists(SEEDS, max_size=3), stream=st.integers(0, 7), n_parts=st.integers(0, 2),
       data=st.data())
def test_seed_keys_equal_numpys_seed_sequence(seeds, stream, n_parts, data):
    # seeds of one, two, five and seven words, so that the hash constants
    # after the pools differ between the columns of one pass
    seeds = data.draw(st.permutations([0, 2**64 - 1, 2**128, 2**200, *seeds]))
    indices = data.draw(addresses(n_parts, max_size=6))
    expected = np.array([seed_sequence(seed, stream, index).generate_state(2, np.uint64)
                         for seed in seeds for index in indices])
    assert np.array_equal(_seed_keys(seeds, stream, indices), expected)
    assert np.array_equal(_seed_keys(seeds, stream, np.array(indices, dtype=np.uint64)), expected)


def test_seed_keys_of_no_seed_or_no_index_are_empty():
    for seeds, indices in (([], [(0,)]), ([1, 2], []), ([1], np.arange(0))):
        keys = _seed_keys(seeds, STREAM_TRIAL, indices)
        assert keys.shape == (0, 2) and keys.dtype == np.uint64


def draw_all(rng):
    return (
        rng.standard_normal(5),
        rng.multinomial(50, [0.2, 0.3, 0.5]),
        rng.standard_exponential(3),
    )


@settings(max_examples=60, deadline=None, database=None)
@given(seed=SEEDS, stream=st.integers(0, 7), n_parts=st.integers(0, 2), data=st.data())
def test_rekeyed_generator_draws_what_rng_at_draws(seed, stream, n_parts, data):
    indices = data.draw(addresses(n_parts, max_size=6))
    for index, rng in zip(indices, _rekeyed(_keys(seed, stream, indices))):
        fresh = rng_at(seed, stream, *index)
        numpys = np.random.Generator(np.random.Philox(seed_sequence(seed, stream, index)))
        for a, b, c in zip(draw_all(rng), draw_all(fresh), draw_all(numpys)):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        # three 32-bit draws leave half a 64-bit word spare for the next
        # address's re-keying to discard
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1


def spare_half(rng):
    rng.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count of 32-bit draws
    assert rng.bit_generator.state["has_uint32"] == 1


def part_used_buffer(rng):
    rng.random(2)  # two of the four 64-bit words one Philox block gives
    assert rng.bit_generator.state["buffer_pos"] == 2


LEFTOVERS = {"nothing": lambda rng: None, "spare-half": spare_half,
             "part-used-buffer": part_used_buffer}


@pytest.mark.parametrize("leave", LEFTOVERS.values(), ids=LEFTOVERS)
def test_each_rekey_restores_the_state_of_a_fresh_generator(leave):
    keys = _keys(2026, STREAM_GINIBRE, np.arange(6))
    for key, rng in zip(keys, _rekeyed(keys)):
        assert state_fields(rng) == state_fields(_generator(key))
        leave(rng)  # what the previous index leaves behind for the next re-key


def test_a_live_generator_draws_one_stream_however_its_attempts_are_cut():
    # The fixed-purity continuation: each index keeps one live generator,
    # draws stacked rounds of attempts in place, a last round cut short by
    # the cap, then blocks alone.  Together they must be one uninterrupted
    # draw of the key's stream, so no accepted state depends on the cuts.
    attempt, rounds = (2, 4, 4), [_ROUND, _ROUND, _ROUND, 9]
    for key in _keys(2026, STREAM_FIXED_PURITY, np.arange(4)):
        rng, parts = _generator(key), []
        for size in rounds:
            parts.append(np.empty((size, *attempt)))
            rng.standard_normal(out=parts[-1])
        parts += [rng.standard_normal((REJECTION_BLOCK, *attempt)) for _ in range(2)]
        reference = _generator(key)
        whole = reference.standard_normal((sum(rounds) + 2 * REJECTION_BLOCK, *attempt))
        assert np.array_equal(np.concatenate(parts), whole)
        assert state_fields(rng) == state_fields(reference)


@pytest.mark.parametrize(
    "address, value",
    [
        ((2026, STREAM_TRIAL, 0), 17869917908401515170),
        ((2026, STREAM_TRIAL, 9), 14447280633774175575),
        ((424242, STREAM_TRIAL, 1000, 5), 8955057766883105596),
        ((0, 0), 12837662829208681286),
        ((2**70 + 11, 6, 2**64 - 1), 14230866662044750304),
        ((2**32, 3, 2**32, 2**32 - 1), 4364556655634866218),
    ],
)
def test_derive_seed_values_are_unchanged(address, value):
    assert derive_seed(*address) == value
    words = seed_sequence(address[0], address[1], address[2:]).generate_state(2, np.uint64)
    assert derive_seed(*address) == int(words[0] ^ words[1])


def test_derived_seeds_are_derive_seed_of_each_address():
    addresses = [(1000, 5), (0, 0), (2**64 - 1, 2**32)]
    assert _derived_seeds(424242, STREAM_TRIAL, addresses) == [
        derive_seed(424242, STREAM_TRIAL, *index) for index in addresses
    ]
    seeds = _derived_seeds(2026, STREAM_TRIAL, np.arange(10))
    assert seeds[0] == 17869917908401515170 and seeds[9] == 14447280633774175575
    assert all(type(seed) is int for seed in seeds)


@pytest.mark.parametrize("bad", [[(-1,)], [(0,), (2**64,)], [(1.5,)], [(True,)]])
def test_keys_apply_the_integer_rule_to_every_part(bad):
    message = r"^index must be an integer >= 0 and <= 18446744073709551615, got "
    with pytest.raises(ValueError, match=message):
        _keys(1, STREAM_GINIBRE, bad)
    with pytest.raises(ValueError, match=message):
        _keys(1, STREAM_GINIBRE, np.array(bad, dtype=object))


@pytest.mark.parametrize("empty", [np.arange(0), np.zeros((0, 2), dtype=np.uint64), []])
def test_no_address_has_no_key_and_no_stream(empty):
    keys = _keys(1, STREAM_GINIBRE, empty)
    assert keys.shape == (0, 2) and keys.dtype == np.uint64
    assert list(_rekeyed(keys)) == []
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        _keys(-1, STREAM_GINIBRE, empty)
