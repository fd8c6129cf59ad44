"""Property-based tests over generated Ginibre states and records.

Example counts are small so the suite stays fast; every state is addressed
as ginibre(seed, index, rank), so a failing example replays exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entcov.ensembles import ginibre
from entcov.jsonio import dumps, loads
from entcov.sampler import (
    MeasurementRecord,
    outcome_probabilities,
    record_from_dict,
    record_to_dict,
    simulate_record,
)

states = st.builds(
    ginibre,
    st.integers(0, 2**32 - 1),
    st.integers(0, 10**6),
    st.integers(1, 4),
)
few = settings(max_examples=30, deadline=None, database=None)


@few
@given(states)
def test_outcome_table_is_a_distribution_per_setting(rho):
    table = outcome_probabilities(rho)
    assert table.shape == (3, 3, 4)
    assert np.all(table >= 0)
    assert np.max(np.abs(table.sum(axis=-1) - 1.0)) < 1e-15


@few
@given(states)
def test_outcome_table_is_no_signalling(rho):
    # outcome order (+ +), (+ -), (- +), (- -): A's marginal of setting (i, j)
    # must not depend on B's axis j, nor B's marginal on A's axis i
    table = outcome_probabilities(rho)
    a_plus = table[..., 0] + table[..., 1]
    b_plus = table[..., 0] + table[..., 2]
    assert np.max(np.abs(a_plus - a_plus[:, :1])) <= 1e-15
    assert np.max(np.abs(b_plus - b_plus[:1, :])) <= 1e-15


@few
@given(states, st.integers(1, 10**6), st.integers(0, 2**63 - 1), st.booleans())
def test_record_json_re_serializes_to_identical_text(rho, shots, seed, exact):
    if exact:  # fractional counts exercise the 17-digit float text
        rec = MeasurementRecord(shots, shots * outcome_probabilities(rho), seed)
    else:
        rec = simulate_record(rho, shots, seed)
    text = dumps(record_to_dict(rec))
    assert dumps(record_to_dict(record_from_dict(loads(text)))) == text
