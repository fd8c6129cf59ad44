import ctypes

import numpy as np
import pytest

from entcov.linalg import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA3,
    _blas_kernel,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    sqrt_psd,
    tensor,
)
from entcov.states import canonical, rho_u


def random_cmat(rng, dim=2):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_tensor_identity():
    assert np.array_equal(tensor(SIGMA0, SIGMA0), np.eye(4))


def test_tensor_sigma3_sigma3():
    assert np.array_equal(tensor(SIGMA3, SIGMA3), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_tensor_sigma1_identity_block_structure():
    # antidiagonal 2x2 identity blocks: A is the slow factor
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = np.eye(2)
    expected[2:4, 0:2] = np.eye(2)
    assert np.array_equal(tensor(SIGMA1, SIGMA0), expected)


def test_tensor_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        tensor(np.eye(4), SIGMA0)


def test_kronecker_mixed_product_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c, d = (random_cmat(rng) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pauli_trace_orthogonality():
    for i in range(4):
        for j in range(4):
            tr = np.trace(PAULIS[i] @ PAULIS[j])
            assert abs(tr - (2.0 if i == j else 0.0)) < 1e-15


def test_partial_trace_singlet_marginal_is_maximally_mixed():
    rho = canonical("singlet").mat
    assert np.max(np.abs(partial_trace(rho, "A") - SIGMA0 / 2)) < 1e-12


def test_partial_trace_product_state():
    rho = canonical("product00").mat
    expected = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.max(np.abs(partial_trace(rho, "B") - expected)) < 1e-15


def test_partial_trace_rho_u_marginal():
    rho = rho_u(0.25, 0.0).mat
    assert np.max(np.abs(partial_trace(rho, "A") - SIGMA0 / 2)) < 1e-15


def test_partial_trace_preserves_trace_and_factorizes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = random_cmat(rng), random_cmat(rng)
        m = tensor(a, b)
        assert np.max(np.abs(partial_trace(m, "A") - a * np.trace(b))) < 1e-12
        assert np.max(np.abs(partial_trace(m, "B") - b * np.trace(a))) < 1e-12
        assert abs(np.trace(partial_trace(m, "A")) - np.trace(m)) < 1e-12


def test_partial_transpose_product_operator():
    rng = np.random.default_rng(3)
    a, b = random_cmat(rng), random_cmat(rng)
    assert np.max(np.abs(partial_transpose(tensor(a, b), "B") - tensor(a, b.T))) < 1e-14
    assert np.max(np.abs(partial_transpose(tensor(a, b), "A") - tensor(a.T, b))) < 1e-14


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(5)
    m = random_cmat(rng, 4)
    for sub in ("A", "B"):
        assert np.array_equal(partial_transpose(partial_transpose(m, sub), sub), m)


def test_partial_transpose_singlet_negative_eigenvalue():
    pt = partial_transpose(canonical("singlet").mat, "B")
    # oracle: numpy's own Hermitian eigensolver
    assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-12


def test_eig_hermitian_diagonal():
    w, _ = eig_hermitian(SIGMA3)
    assert np.allclose(w, [1.0, -1.0], atol=1e-15)


def test_eig_hermitian_sigma1():
    w, _ = eig_hermitian(SIGMA1)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)


def test_eig_hermitian_pure_rho_u():
    w, _ = eig_hermitian(rho_u(0.5, 0.0).mat)
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_eig_hermitian_contract():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = random_cmat(rng, 4)
        m = m + m.conj().T
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert abs(w.sum() - np.trace(m).real) < 1e-10
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
        assert np.max(np.abs(v @ v.conj().T - np.eye(4))) < 1e-10


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_psd_identity():
    assert np.max(np.abs(sqrt_psd(np.eye(4)) - np.eye(4))) < 1e-14


def test_sqrt_psd_diagonal():
    m = np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)
    assert np.max(np.abs(sqrt_psd(m) - np.diag([2.0, 1.0, 0.0, 0.0]))) < 1e-12


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = x @ x.conj().T
        m /= np.trace(m).real
        s = sqrt_psd(m)
        assert np.max(np.abs(s @ s - m)) < 1e-9
        assert np.max(np.abs(s - s.conj().T)) < 1e-12


def test_sqrt_psd_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, 1.0, 1.0, -0.1]))


def test_rejects_nonfinite_entries():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        partial_trace(bad, "A")


@pytest.mark.parametrize("sub", ["C", "a", None])
def test_partial_operations_reject_a_bad_subsystem(sub):
    with pytest.raises(ValueError, match="^keep must be 'A' or 'B'"):
        partial_trace(np.eye(4), sub)
    with pytest.raises(ValueError, match="^sub must be 'A' or 'B'"):
        partial_transpose(np.eye(4), sub)


def test_the_blas_kernel_is_named_or_unknown(monkeypatch):
    kernel = _blas_kernel()
    assert type(kernel) is str and kernel

    def unloadable(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert _blas_kernel() == "unknown"
