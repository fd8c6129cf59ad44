"""Dense complex linear algebra for 2x2 and 4x4 operators.

Index convention, used everywhere in this package: subsystem A is the
slow (leftmost) tensor factor, so a 4x4 row index r splits as
r = 2*iA + iB.

``as_cmat``, ``herm_defect``, ``eig_hermitian`` and ``sqrt_psd`` also take
a stack of shape (..., n, n) and work matrix by matrix; a single matrix is
the stack's one-matrix case and gets bit-identical results.  Each check
runs over the whole stack in turn and reports its first failing matrix
(in C order), so a stack with one bad matrix fails as that matrix would.
"""

from __future__ import annotations

import numpy as np

# The one rounding tolerance of every matrix check: Hermiticity, unit trace,
# positivity and unitarity.  Each rule is decided once, on the matrix it
# constrains; values derived from a matrix that passed are not checked again.
MATRIX_TOL = 1e-10

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)

for _m in PAULIS:
    _m.setflags(write=False)


def as_cmat(m, dims=(2, 4)) -> np.ndarray:
    """Coerce to a square complex matrix, or a stack (..., n, n) of them, of an
    allowed dimension; reject NaN/Inf."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in dims:
        raise ValueError(f"expected matrix dimension in {dims}, got {a.shape[-1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _one_matrix(m, dims) -> np.ndarray:
    """as_cmat for operations defined on a single matrix only."""
    a = as_cmat(m, dims)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _trace(m: np.ndarray):
    """Trace of a 4x4 matrix or of every matrix of a stack, bit for bit numpy's complex trace.

    numpy's complex add-reduce sums four entries as (d0 + d1) + (d2 + d3),
    added to a start of +0.0 (so a sum of negative zeros is +0.0); this is
    that order in elementwise adds, which stay fast where numpy's reduction
    runs about 6x slower straight after a complex ``@``.  Applied to the
    real part of a matrix it gives the real part of the complex trace;
    numpy's real trace and np.einsum("...ii") sum in other orders.
    """
    d = m.diagonal(0, -2, -1)
    t = d[..., ::2] + d[..., 1::2]
    return t[..., 0] + t[..., 1] + 0.0


def herm_defect(m: np.ndarray):
    """Max entrywise deviation from Hermiticity: a float, or one per matrix of a stack."""
    return np.abs(m - _dagger(m)).max(axis=(-2, -1))


def _first_failing(bad, values):
    """The entry of values at the first True of bad (C order), or None if none is."""
    return np.asarray(values)[bad].flat[0] if bad.any() else None


def _check_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """m, after raising ``<what> is not Hermitian (defect ...)`` for its first
    matrix off Hermiticity by more than MATRIX_TOL, if any."""
    defect = herm_defect(m)
    worst = _first_failing(defect > MATRIX_TOL, defect)
    if worst is not None:
        raise ValueError(f"{what} is not Hermitian (defect {worst:.3e})")
    return m


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix or stack, finite for every finite m.

    Halved first, so the sum cannot overflow; numpy divides complex by 2 slowly.
    """
    h = m * 0.5
    h += _dagger(h)
    return h


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, A as the slow factor.

    Element ((2i+k), (2j+l)) equals a[i, j] * b[k, l].
    """
    a = _one_matrix(a, dims=(2,))
    b = _one_matrix(b, dims=(2,))
    return np.kron(a, b)


def partial_trace(m, keep: str) -> np.ndarray:
    """Reduced 2x2 matrix of subsystem ``keep`` ("A" or "B") of a 4x4 matrix."""
    m = _one_matrix(m, dims=(4,))
    r = m.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", r)
    if keep == "B":
        return np.einsum("ikil->kl", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(m, sub: str) -> np.ndarray:
    """Transpose the indices of one subsystem ("A" or "B") of a 4x4 matrix."""
    m = _one_matrix(m, dims=(4,))
    r = m.reshape(2, 2, 2, 2)
    if sub == "A":
        out = r.transpose(2, 1, 0, 3)
    elif sub == "B":
        out = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"sub must be 'A' or 'B', got {sub!r}")
    return out.reshape(4, 4).copy()


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (w, v) with real w and v[..., :, k] the eigenvector belonging to
    w[..., k], so that v @ diag(w) @ v^dagger reconstructs the input.
    """
    w, v = np.linalg.eigh(_hermitian_part(_check_hermitian(as_cmat(m))))
    return w[..., ::-1].copy(), v[..., ::-1].copy()


RELATIVE_EIG_FLOOR = 1e-13


def sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-MATRIX_TOL, 0) are clamped to zero; anything more negative
    is rejected.  Eigenvalues below RELATIVE_EIG_FLOOR of the largest are
    also zeroed: they are eigensolver noise, and letting sqrt amplify them
    (sqrt(1e-16) = 1e-8) would poison downstream spectra of rank-deficient
    inputs.
    """
    w, v = eig_hermitian(m)
    w_min = _first_failing(w[..., -1] < -MATRIX_TOL, w[..., -1])
    if w_min is not None:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w_min:.3e})")
    w = np.maximum(w, 0.0)
    w[w < RELATIVE_EIG_FLOOR * w[..., :1]] = 0.0
    return (v * np.sqrt(w)[..., None, :]) @ _dagger(v)
