import pytest

from entcov._rng import STREAM_TRIAL, derive_seed, rng_at


@pytest.mark.parametrize("fn", [rng_at, derive_seed])
def test_negative_seed_rejected_with_one_message(fn):
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
        fn(-1, STREAM_TRIAL, 0)
