"""Pauli expectation values, variances, covariances and correlation data.

Axes are the three Pauli directions, indexed 1..3 as in the operator
subscripts.  Arbitrary-direction observables are out of scope: one fixed
mutually unbiased triple suffices for the measure, and any local unitary
relabelling of it is covered by the invariance of G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import _integer
from .linalg import PAULIS, _check_hermitian, _one_matrix, _trace, as_cmat, tensor
from .states import DensityMatrix

CONSISTENCY_TOL = 1e-12

# PAIR_OBS[m, n] = sigma_m (x) sigma_n, m, n in 0..3
PAIR_OBS = np.stack(
    [np.stack([tensor(PAULIS[m], PAULIS[n]) for n in range(4)]) for m in range(4)]
)
PAIR_OBS.setflags(write=False)


@dataclass(frozen=True)
class CorrelationData:
    """All second moments of one state in the fixed Pauli frame.

    cov[i][j] holds the covariance of sigma_(i+1) on A with sigma_(j+1) on B;
    corrT holds the raw joint moments <sigma_(i+1) (x) sigma_(j+1)>, and
    blochA/blochB the local first moments.  Raw correlations are kept next to
    the covariances because the finite-shot estimator forms them separately.
    """

    cov: np.ndarray
    blochA: np.ndarray
    blochB: np.ndarray
    corrT: np.ndarray

    def __post_init__(self):
        # Copies, so that freezing them leaves the caller's own arrays writeable.
        cov = np.array(self.cov, dtype=float)
        bloch_a = np.array(self.blochA, dtype=float)
        bloch_b = np.array(self.blochB, dtype=float)
        corr = np.array(self.corrT, dtype=float)
        if cov.shape != (3, 3) or corr.shape != (3, 3):
            raise ValueError("cov and corrT must be 3x3")
        if bloch_a.shape != (3,) or bloch_b.shape != (3,):
            raise ValueError("Bloch vectors must have 3 components")
        for name, arr in (("cov", cov), ("blochA", bloch_a), ("blochB", bloch_b), ("corrT", corr)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must have finite entries")
        defect = np.max(np.abs(cov - (corr - np.outer(bloch_a, bloch_b))))
        if defect > CONSISTENCY_TOL:
            raise ValueError(f"cov != corrT - blochA blochB^T (defect {defect:.3e})")
        for arr in (cov, bloch_a, bloch_b, corr):
            arr.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "blochA", bloch_a)
        object.__setattr__(self, "blochB", bloch_b)
        object.__setattr__(self, "corrT", corr)


def expectation(rho: DensityMatrix, obs) -> float:
    """<obs> = Tr(rho obs) for a Hermitian observable."""
    obs = _check_hermitian(_one_matrix(obs, dims=(4,)), "observable")
    return float(_trace(rho.mat @ obs).real)


def variance(rho: DensityMatrix, obs) -> float:
    """<obs^2> - <obs>^2, clamped at zero against rounding."""
    obs = _one_matrix(obs, dims=(4,))
    mean = expectation(rho, obs)
    second = expectation(rho, obs @ obs)
    return max(second - mean * mean, 0.0)


def covariance(rho: DensityMatrix, i: int, j: int) -> float:
    """C(sigma_i on A, sigma_j on B) = <sigma_i (x) sigma_j> - <sigma_i><sigma_j>; i, j in 1..3."""
    i, j = _integer("i", i, 1, 3), _integer("j", j, 1, 3)
    joint = expectation(rho, PAIR_OBS[i, j])
    a = expectation(rho, PAIR_OBS[i, 0])
    b = expectation(rho, PAIR_OBS[0, j])
    return joint - a * b


def pauli_moments(mat: np.ndarray) -> np.ndarray:
    """4x4 table t[m, n] = Tr(M sigma_m (x) sigma_n) of a Hermitian matrix.

    Works on any Hermitian matrix, not only physical states; this is what
    lets G be evaluated algebraically on partial transposes.  A stack of
    shape (..., 4, 4) gives one table per matrix, each bit-identical to the
    table of that matrix alone; a failing check reports the first failing
    matrix.
    """
    return _moments(_check_hermitian(as_cmat(mat, dims=(4,))))


def _moments(mat: np.ndarray) -> np.ndarray:
    """pauli_moments of a complex (..., 4, 4) matrix or stack, not checked (a validated state)."""
    return np.real(np.einsum("mnij,...ji->...mn", PAIR_OBS, mat))


def _covariances(t: np.ndarray) -> np.ndarray:
    """The 3x3 covariances t[i, j] - t[i, 0] t[0, j] (i, j in 1..3) of a moment table or stack."""
    return t[..., 1:, 1:] - t[..., 1:, 0, None] * t[..., None, 0, 1:]


def correlation_data_from_moments(t: np.ndarray) -> CorrelationData:
    return CorrelationData(
        cov=_covariances(t),
        blochA=t[1:, 0],
        blochB=t[0, 1:],
        corrT=t[1:, 1:],
    )


def correlation_data(rho: DensityMatrix) -> CorrelationData:
    """All 9 covariances, 9 raw correlations and both Bloch vectors of a state."""
    return correlation_data_from_moments(_moments(rho.mat))
