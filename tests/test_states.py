import numpy as np
import pytest

from entcov.ensembles import ginibre, haar_pure, random_local_unitary
from entcov.jsonio import dumps, format_float, loads
from entcov.linalg import MATRIX_TOL, SIGMA0, SIGMA1
from entcov.states import (
    DensityMatrix,
    PureState,
    apply_local_unitary,
    canonical,
    density_matrix_from_dict,
    density_matrix_to_dict,
    from_pure,
    pure_state_from_dict,
    pure_state_to_dict,
    purity,
    rho_u,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_from_pure_product00():
    rho = from_pure(PureState(np.array([1, 0, 0, 0], dtype=complex)))
    assert np.array_equal(rho.mat, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_from_pure_singlet_entries():
    rho = canonical("singlet").mat
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_pure_states_have_unit_purity():
    for i in range(50):
        assert abs(purity(from_pure(haar_pure(2024, i))) - 1.0) < 1e-10


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match=r"^expected 4 amplitudes, got shape \(2, 2\)$"):
        PureState(np.eye(2))
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        PureState(np.array([np.nan, 1.0, 0.0, 0.0]))


def test_purity_maximally_mixed():
    assert purity(canonical("maximally_mixed")) == 0.25


def test_purity_rho_u_formula():
    # purity = 1/2 + 2 gamma^2, independent of theta
    for gamma in (0.0, 0.1, 0.25, 0.37, 0.5):
        for theta in (0.0, 0.8, 2.9):
            expected = 0.5 + 2.0 * gamma * gamma
            assert abs(purity(rho_u(gamma, theta)) - expected) < 1e-12
    assert abs(purity(rho_u(0.25, 0.0)) - 0.625) < 1e-12


def test_rho_u_rejects_gamma_out_of_range():
    for gamma in (-0.01, 0.51, 1.0):
        with pytest.raises(ValueError):
            rho_u(gamma, 0.0)


def test_canonical_states():
    singlet = canonical("singlet")
    expected_amps = np.array([0.0, INV_SQRT2, -INV_SQRT2, 0.0], dtype=complex)
    assert np.max(np.abs(singlet.mat - np.outer(expected_amps, expected_amps.conj()))) < 1e-15
    assert np.array_equal(canonical("maximally_mixed").mat, np.eye(4) / 4)
    assert np.array_equal(canonical("classically_correlated").mat, rho_u(0.0, 0.0).mat)
    for name in ("phi_plus", "phi_minus", "psi_plus", "product00"):
        assert abs(purity(canonical(name)) - 1.0) < 1e-12


def test_canonical_unknown_name():
    with pytest.raises(ValueError):
        canonical("bell")


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):  # trace 0.99
        DensityMatrix(np.diag([0.24, 0.25, 0.25, 0.25]).astype(complex))
    non_herm = np.eye(4, dtype=complex) / 4
    non_herm[0, 1] = 0.1
    with pytest.raises(ValueError):
        DensityMatrix(non_herm)
    with pytest.raises(ValueError):  # eigenvalue -0.01
        DensityMatrix(np.diag([0.51, 0.3, 0.2, -0.01]).astype(complex))


def test_density_matrix_is_immutable():
    rho = canonical("singlet")
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def test_apply_local_unitary_identity():
    rho = canonical("singlet")
    out = apply_local_unitary(rho, SIGMA0, SIGMA0)
    assert np.max(np.abs(out.mat - rho.mat)) < 1e-15


def test_apply_local_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_local_unitary(canonical("singlet"), 2 * SIGMA0, SIGMA0)


@pytest.mark.parametrize(
    "u, message",
    [
        pytest.param(
            np.stack([SIGMA0, SIGMA0]), r"^expected a square matrix, got shape \(2, 2, 2\)$", id="stack"
        ),
        pytest.param(np.eye(4), r"^expected matrix dimension in \(2,\), got 4$", id="4x4"),
        pytest.param(np.full((2, 2), np.nan), "^matrix entries must be finite$", id="nan"),
    ],
)
def test_apply_local_unitary_takes_one_2x2_matrix_per_factor(u, message):
    with pytest.raises(ValueError, match=message):
        apply_local_unitary(canonical("singlet"), u, SIGMA0)
    with pytest.raises(ValueError, match=message):
        apply_local_unitary(canonical("singlet"), SIGMA0, u)


def test_apply_local_unitary_flip_gives_phi_minus():
    flipped = apply_local_unitary(canonical("singlet"), SIGMA1, SIGMA0)
    # equal to (|00> - |11>)/sqrt(2) up to a global phase, so equal as matrices
    assert np.max(np.abs(flipped.mat - canonical("phi_minus").mat)) < 1e-12


def test_local_unitaries_preserve_purity_and_spectrum():
    rng_states = [rho_u(0.2, 0.4), canonical("singlet"), canonical("maximally_mixed")]
    for k in range(1000):
        rho = rng_states[k % len(rng_states)]
        u_a, u_b = random_local_unitary(99, k)
        out = apply_local_unitary(rho, u_a, u_b)
        assert abs(purity(out) - purity(rho)) < 1e-10
        w_in = np.linalg.eigvalsh(rho.mat)
        w_out = np.linalg.eigvalsh(out.mat)
        assert np.max(np.abs(w_in - w_out)) < 1e-10


def test_density_matrix_json_round_trip():
    rho = rho_u(0.3123, 1.234)
    text = dumps(density_matrix_to_dict(rho))
    back = density_matrix_from_dict(loads(text))
    assert np.array_equal(back.mat, rho.mat)


def test_density_matrix_json_enforces_invariants():
    bad = {"re": (np.eye(4) * 0.26).tolist(), "im": np.zeros((4, 4)).tolist()}
    with pytest.raises(ValueError):
        density_matrix_from_dict(bad)
    with pytest.raises(ValueError):
        density_matrix_from_dict({"re": np.eye(4).tolist()})
    with pytest.raises(ValueError):
        density_matrix_from_dict({"re": [[0.5]], "im": [[0.0]]})


def test_pure_state_json_round_trip():
    p = haar_pure(5, 0)
    back = pure_state_from_dict(loads(dumps(pure_state_to_dict(p))))
    assert np.array_equal(back.amps, p.amps)
    with pytest.raises(ValueError):
        pure_state_from_dict({"amps": [[1.0, 0.0]]})
    for data in ({"amps": pure_state_to_dict(p)["amps"], "norm": 1}, [], {}):
        with pytest.raises(ValueError, match='^pure state JSON must have exactly the field "amps"$'):
            pure_state_from_dict(data)


def test_dumps_writes_only_what_json_holds():
    assert dumps({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}'
    assert (dumps([]), dumps({})) == ("[]", "{}")
    assert (dumps(True), dumps(None)) == ("true", "null")
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
            format_float(x)
        with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
            dumps([1.0, x])
    with pytest.raises(TypeError, match="^cannot serialize complex$"):
        dumps({"z": 1j})


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_density_matrix_from_dict_rejects_non_numbers(value):
    data = density_matrix_to_dict(rho_u(0.25))
    data["re"][0][0] = value
    with pytest.raises(ValueError, match='^"re" must hold only numbers'):
        density_matrix_from_dict(data)


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_pure_state_from_dict_rejects_non_numbers(value):
    data = pure_state_to_dict(haar_pure(5, 0))
    data["amps"][1][1] = value
    with pytest.raises(ValueError, match='^"amps" must hold only numbers'):
        pure_state_from_dict(data)


def _off_by(defect: float) -> np.ndarray:
    """rho_u(0), G = 1, off by a Hermiticity defect and a minimum eigenvalue -defect."""
    m = np.diag([0.5 + defect, -defect, 0.0, 0.5]).astype(complex)
    m[0, 3] += defect  # one entry without its mirror
    return m


def test_one_matrix_tolerance_holds_through_the_analysis():
    from entcov.concurrence import concurrence_mixed
    from entcov.gmeasure import g_hilbert_schmidt
    from entcov.linalg import MATRIX_TOL, herm_defect
    from entcov.observables import correlation_data
    from entcov.sampler import outcome_probabilities, shots_for_verdict, simulate_record

    m = _off_by(0.9 * MATRIX_TOL)
    assert 0.8 * MATRIX_TOL < herm_defect(m) <= MATRIX_TOL
    assert -MATRIX_TOL < np.linalg.eigvalsh((m + m.conj().T) / 2)[0] < -0.8 * MATRIX_TOL
    rho = DensityMatrix(m)
    assert abs(concurrence_mixed(rho)) < 1e-9
    assert abs(np.sum(correlation_data(rho).cov ** 2) - 1.0) < 1e-9
    assert abs(g_hilbert_schmidt(rho) - 1.0) < 1e-9
    with pytest.raises(ValueError, match="^not Hermitian"):
        DensityMatrix(_off_by(1.1 * MATRIX_TOL))

    # A trace off by half the tolerance constructs, and each setting's
    # outcome probabilities still sum to 1.
    for name in ("maximally_mixed", "singlet"):
        m = canonical(name).mat.copy()
        m[0, 0] += 0.5 * MATRIX_TOL
        rho = DensityMatrix(m)
        assert np.abs(outcome_probabilities(rho).sum(axis=-1) - 1.0).max() < 1e-15
        assert simulate_record(rho, 10, 1).counts.sum() == 90
    assert shots_for_verdict(rho, 1.0, 1, trials=1, required=1) >= 1


def _psd_edge(rng, n: int):
    """Trace-1 matrices q diag(w) q^dagger of a random unitary q, min eigenvalue
    -MATRIX_TOL * (1 +- 3e-6), where the PSD rule decides."""
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        w = rng.random(4)
        w[0] = -MATRIX_TOL * (1 + rng.uniform(-3e-6, 3e-6))
        w[1:] *= (1 - w[0]) / w[1:].sum()
        m = (q * w) @ q.conj().T
        yield (m + m.conj().T) / 2


def _trace_edge(rng, n: int):
    """Diagonal matrices of trace 1 +- U * MATRIX_TOL with one eigenvalue -U * MATRIX_TOL."""
    for _ in range(n):
        w = rng.random(4)
        w[0] = -rng.random() * MATRIX_TOL
        w[1:] *= (1 + rng.uniform(-1, 1) * MATRIX_TOL - w[0]) / w[1:].sum()
        yield np.diag(rng.permutation(w)).astype(complex)


def _hermitian_edge(rng, n: int):
    """Rank-4 Ginibre states plus i c S, S a random symmetric sign matrix, so that
    the Hermiticity defect 2c lies in (0.2, 1) * MATRIX_TOL."""
    for k in range(n):
        s = np.triu(rng.choice([-1.0, 1.0], (4, 4)))
        s += np.triu(s, 1).T
        yield ginibre(7, k, 4).mat + 0.5j * rng.uniform(0.2, 1) * MATRIX_TOL * s


def test_every_constructed_state_passes_the_analysis():
    """A matrix DensityMatrix accepts passes every later check, at each edge of its rules."""
    from entcov.concurrence import concurrence_mixed
    from entcov.gmeasure import analyze, l3
    from entcov.observables import covariance
    from entcov.sampler import estimate_g, outcome_probabilities, simulate_record

    rng = np.random.default_rng(20261019)
    named = canonical("maximally_mixed").mat + 0.49e-10j * np.diag([1, -1, -1, 1])
    families = {
        "psd": list(_psd_edge(rng, 300)),
        "trace": list(_trace_edge(rng, 200)),
        "hermitian": list(_hermitian_edge(rng, 200)),
        "named": [named],
    }
    for family, mats in families.items():
        accepted = 0
        for m in mats:
            try:
                rho = DensityMatrix(m)
            except ValueError:
                continue
            accepted += 1
            concurrence_mixed(rho)
            analyze(rho)
            l3(rho)
            outcome_probabilities(rho)
            estimate_g(simulate_record(rho, 10, 1))
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    covariance(rho, i, j)
        assert accepted > 0, family
        if family == "psd":
            assert accepted < len(mats)  # both sides of the edge are reached
