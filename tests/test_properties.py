"""Property-based tests over generated Ginibre states, local unitaries and records.

Example counts are small so the suite stays fast; every state is addressed
as ginibre(seed, index, rank), so a failing example replays exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entcov.concurrence import concurrence_mixed
from entcov.ensembles import ginibre, random_local_unitary
from entcov.gmeasure import g_from_covariances, l3
from entcov.jsonio import dumps, loads
from entcov.linalg import SIGMA1, partial_transpose
from entcov.observables import correlation_data_from_moments, pauli_moments
from entcov.sampler import (
    MeasurementRecord,
    outcome_probabilities,
    record_from_dict,
    record_to_dict,
    simulate_record,
)
from entcov.states import apply_local_unitary, canonical

from oracles import g_of

states = st.builds(
    ginibre,
    st.integers(0, 2**32 - 1),
    st.integers(0, 10**6),
    st.integers(1, 4),
)
unitaries = st.builds(random_local_unitary, st.integers(0, 2**32 - 1), st.integers(0, 10**6))
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


@few
@given(states, unitaries)
def test_g_and_concurrence_are_local_unitary_invariants(rho, u):
    rotated = apply_local_unitary(rho, *u)
    assert abs(g_of(rotated) - g_of(rho)) <= 1e-12
    assert abs(concurrence_mixed(rotated) - concurrence_mixed(rho)) <= 1e-9


@few
@given(states, st.sampled_from("AB"))
def test_g_is_unchanged_by_partial_transposition(rho, sub):
    moments = pauli_moments(partial_transpose(rho.mat, sub))
    assert abs(g_from_covariances(correlation_data_from_moments(moments)) - g_of(rho)) <= 1e-12


@few
@given(unitaries)
def test_l3_contrast_of_the_singlet_survives_a_common_rotation(u):
    # U (x) U leaves the singlet unchanged, so L3 stays 0 for it and 8 for its
    # sigma1-flip, while G is 3 for both: L3 is not a local-unitary invariant
    u_a, _ = u
    singlet = apply_local_unitary(canonical("singlet"), u_a, u_a)
    flipped = apply_local_unitary(canonical("singlet"), SIGMA1 @ u_a, u_a)
    assert l3(singlet) <= 1e-12
    assert abs(l3(flipped) - 8.0) <= 1e-12
    assert abs(g_of(singlet) - 3.0) <= 1e-12 and abs(g_of(flipped) - 3.0) <= 1e-12
