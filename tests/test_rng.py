import numpy as np
import pytest

from entcov._rng import STREAM_GINIBRE, STREAM_TRIAL, derive_seed, rng_at
from entcov.ensembles import (
    EnsembleSpec,
    fixed_purity,
    ginibre,
    haar_pure,
    separable_mixture,
)
from entcov.sampler import shots_for_verdict
from entcov.states import canonical


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
    ],
    ids=["index-2**64", "index--1", "index-1.5", "second-part-2**64"],
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
