import functools

import numpy as np
import pytest

from entcov.ensembles import _chunks, _ginibre_stack, ginibre, haar_pure
from entcov.linalg import PAULIS, SIGMA0, SIGMA1, SIGMA3, tensor
from entcov.observables import (
    CorrelationData,
    _covariances,
    correlation_data,
    correlation_data_from_moments,
    covariance,
    expectation,
    pauli_moments,
    variance,
)
from entcov.states import PureState, _purity, _validated, canonical, from_pure, rho_u


def test_expectation_singlet_perfect_anticorrelation():
    singlet = canonical("singlet")
    for i in (1, 2, 3):
        val = expectation(singlet, tensor(PAULIS[i], PAULIS[i]))
        assert abs(val + 1.0) < 1e-12


def test_expectation_maximally_mixed_traceless():
    mm = canonical("maximally_mixed")
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert abs(expectation(mm, tensor(PAULIS[i], PAULIS[j]))) < 1e-15


def test_expectation_eigenstate():
    rho = canonical("product00")
    assert abs(expectation(rho, tensor(SIGMA3, SIGMA0)) - 1.0) < 1e-15


def test_expectation_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expectation(canonical("singlet"), np.triu(np.ones((4, 4))))


def _eye_with(value) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[1, 2] = value
    return m


BAD_4X4 = [
    pytest.param(_eye_with(np.nan), "^matrix entries must be finite$", id="nan"),
    pytest.param(_eye_with(np.inf), "^matrix entries must be finite$", id="inf"),
    pytest.param(np.eye(2), r"^expected matrix dimension in \(4,\), got 2$", id="2x2"),
]
STACK = np.stack([np.eye(4)] * 2)


@pytest.mark.parametrize(
    "obs, message",
    BAD_4X4 + [pytest.param(STACK, r"^expected a square matrix, got shape \(2, 4, 4\)$", id="stack")],
)
def test_expectation_and_variance_check_the_observable_as_linalg_does(obs, message):
    for fn in (expectation, variance):
        with pytest.raises(ValueError, match=message):
            fn(canonical("singlet"), obs)


@pytest.mark.parametrize(
    "mat, message", BAD_4X4 + [pytest.param(np.ones(4), "^expected a square matrix", id="vector")]
)
def test_pauli_moments_checks_its_argument_as_linalg_does(mat, message):
    with pytest.raises(ValueError, match=message):
        pauli_moments(mat)


def test_variance_eigenstate_is_zero():
    rho = canonical("product00")
    assert variance(rho, tensor(SIGMA3, SIGMA0)) == 0.0


def test_variance_sigma1_on_product00():
    rho = canonical("product00")
    assert abs(variance(rho, tensor(SIGMA1, SIGMA0)) - 1.0) < 1e-12


def test_variance_singlet_collective_sigma3():
    obs = tensor(SIGMA3, SIGMA0) + tensor(SIGMA0, SIGMA3)
    assert variance(canonical("singlet"), obs) < 1e-12


def test_covariance_singlet_diagonal():
    singlet = canonical("singlet")
    for i in (1, 2, 3):
        assert abs(covariance(singlet, i, i) + 1.0) < 1e-12


def test_covariance_product_state_vanishes():
    # |psi> = |+>|0>: a pure product state with nontrivial Bloch vectors
    amps = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    rho = from_pure(PureState(amps))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert abs(covariance(rho, i, j)) < 1e-12


def test_covariance_classically_correlated():
    assert abs(covariance(rho_u(0.0, 0.0), 3, 3) - 1.0) < 1e-12


def test_covariance_rejects_bad_axis():
    with pytest.raises(ValueError):
        covariance(canonical("singlet"), 0, 1)
    with pytest.raises(ValueError):
        covariance(canonical("singlet"), 1, 4)


def test_covariance_bound_over_random_states():
    # -(var_A + var_B) <= 2 C <= var_A + var_B for every axis pair.  The
    # local variances close to 1 - <sigma_i>^2 since sigma_i^2 = 1; the
    # closed form lets the sweep cover 1e5 states, and the direct variance()
    # route is tied to it separately below.  The states are ginibre(31, k, rank)
    # with the ranks cycling 1-4, generated and measured in stacks by the
    # sweeps' chunk loop.
    for _, mats in _chunks(100_000, functools.partial(_ginibre_stack, 31, ranks=(1, 2, 3, 4))):
        mats = _validated(mats)
        t = pauli_moments(mats)
        var_a = 1.0 - t[:, 1:, 0] ** 2
        var_b = 1.0 - t[:, 0, 1:] ** 2
        cap = var_a[:, :, None] + var_b[:, None, :]
        cov = _covariances(t)
        assert np.all(2.0 * cov <= cap + 1e-10)
        assert np.all(2.0 * cov >= -cap - 1e-10)
        assert np.all((0.25 <= _purity(mats)) & (_purity(mats) <= 1.0))


def test_local_variance_closed_form_matches_variance_op():
    for k in range(500):
        rho = ginibre(31, k, k % 4 + 1)
        cd = correlation_data(rho)
        for i in (1, 2, 3):
            var_a = variance(rho, tensor(PAULIS[i], SIGMA0))
            var_b = variance(rho, tensor(SIGMA0, PAULIS[i]))
            assert abs(var_a - (1.0 - cd.blochA[i - 1] ** 2)) < 1e-12
            assert abs(var_b - (1.0 - cd.blochB[i - 1] ** 2)) < 1e-12
            c2 = 2.0 * covariance(rho, i, i)
            assert -(var_a + var_b) - 1e-10 <= c2 <= var_a + var_b + 1e-10


def test_correlation_data_maximally_mixed_all_zero():
    cd = correlation_data(canonical("maximally_mixed"))
    for arr in (cd.cov, cd.corrT, cd.blochA, cd.blochB):
        assert np.max(np.abs(arr)) < 1e-15


def test_correlation_data_phi_plus():
    cd = correlation_data(canonical("phi_plus"))
    assert np.max(np.abs(cd.corrT - np.diag([1.0, -1.0, 1.0]))) < 1e-12
    assert np.max(np.abs(cd.blochA)) < 1e-12
    assert np.max(np.abs(cd.blochB)) < 1e-12


def test_correlation_data_rho_u():
    for gamma in (0.0, 0.1, 0.25, 0.5):
        cd = correlation_data(rho_u(gamma, 0.0))
        assert np.max(np.abs(cd.cov - np.diag([2 * gamma, -2 * gamma, 1.0]))) < 1e-12
        assert abs(np.sum(cd.cov**2) - (1.0 + 8.0 * gamma * gamma)) < 1e-12


def test_correlation_data_matches_covariance_entrywise():
    for k in range(50):
        rho = ginibre(77, k, 4)
        cd = correlation_data(rho)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert abs(cd.cov[i - 1, j - 1] - covariance(rho, i, j)) < 1e-12
        assert np.max(np.abs(cd.corrT)) <= 1.0 + 1e-12
        assert np.max(np.abs(cd.blochA)) <= 1.0 + 1e-12
        assert np.max(np.abs(cd.blochB)) <= 1.0 + 1e-12


def test_pure_product_states_have_zero_covariance_matrix():
    for k in range(200):
        a = haar_pure(15, 2 * k).amps[:2]
        b = haar_pure(15, 2 * k + 1).amps[:2]
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        rho = from_pure(PureState(np.kron(a, b)))
        cd = correlation_data(rho)
        assert np.max(np.abs(cd.cov)) < 1e-12


def test_correlation_data_from_moments_accepts_partial_transpose():
    from entcov.linalg import partial_transpose

    rho = canonical("singlet")
    cd = correlation_data_from_moments(pauli_moments(partial_transpose(rho.mat, "B")))
    # the sigma2 column flips sign, squares are unchanged
    assert abs(np.sum(cd.cov**2) - 3.0) < 1e-12


def test_correlation_data_validates_consistency():
    with pytest.raises(ValueError):
        CorrelationData(
            cov=np.ones((3, 3)),
            blochA=np.zeros(3),
            blochB=np.zeros(3),
            corrT=np.zeros((3, 3)),
        )
    with pytest.raises(ValueError, match="^cov and corrT must be 3x3$"):
        CorrelationData(cov=np.zeros((3, 3)), blochA=np.zeros(3), blochB=np.zeros(3), corrT=np.zeros(3))
    with pytest.raises(ValueError, match="^Bloch vectors must have 3 components$"):
        CorrelationData(cov=np.zeros((3, 3)), blochA=np.zeros(3), blochB=np.zeros(4), corrT=np.zeros((3, 3)))


def test_correlation_data_is_consistent_to_1e_12():
    # CONSISTENCY_TOL is 1e-12: cov may be 5e-13 off corrT - blochA blochB^T, not 2e-12.
    bloch_a, bloch_b = np.array([0.5, -0.25, 0.0]), np.array([0.0, 0.5, 0.25])
    corr = np.outer(bloch_a, bloch_b)
    inside, outside = np.zeros((3, 3)), np.zeros((3, 3))
    inside[2, 1], outside[2, 1] = 5e-13, 2e-12
    CorrelationData(cov=inside, blochA=bloch_a, blochB=bloch_b, corrT=corr)
    with pytest.raises(ValueError, match=r"^cov != corrT - blochA blochB\^T \(defect 2\.000e-12\)$"):
        CorrelationData(cov=outside, blochA=bloch_a, blochB=bloch_b, corrT=corr)


def test_correlation_data_freezes_copies_not_the_callers_arrays():
    fields = {"cov": np.zeros((3, 3)), "blochA": np.zeros(3), "blochB": np.zeros(3),
              "corrT": np.zeros((3, 3))}
    cd = CorrelationData(**fields)
    for name, arr in fields.items():
        assert arr.flags.writeable, name
        arr[0] = 1.0  # the caller may still edit its own array
        stored = getattr(cd, name)
        assert not stored.flags.writeable and not stored.any(), name
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["cov", "blochA", "blochB", "corrT"])
def test_correlation_data_rejects_non_finite_entries(field, bad):
    fields = {"cov": np.zeros((3, 3)), "blochA": np.zeros(3), "blochB": np.zeros(3),
              "corrT": np.zeros((3, 3))}
    fields[field].flat[1] = bad
    with pytest.raises(ValueError, match=f"^{field} must have finite entries$"):
        CorrelationData(**fields)
