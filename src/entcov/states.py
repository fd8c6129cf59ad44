"""Validated two-qubit state types and canonical state families.

Basis convention: |0> = |up> = horizontal polarization.  Computational
basis states are ordered |00>, |01>, |10>, |11>, qubit A being the left
(slow) factor.  States failing validation are rejected at construction,
never silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .jsonio import _json_floats
from .linalg import MATRIX_TOL, SIGMA0, tensor

PURE_NORM_TOL = 1e-12
_PSD_SHIFT = (1 - 1e-4) * MATRIX_TOL * np.eye(4)  # the Cholesky shift s*I of _validated


def _validated(mats) -> np.ndarray:
    """An (N, 4, 4) stack as complex, every matrix checked as DensityMatrix checks one.

    The checks, in order: finite entries, Hermitian, unit trace and PSD.  A
    failing stack raises the message its first failing matrix raises on its
    own.  The PSD rule is min eigh(h) >= -MATRIX_TOL for the Hermitian part
    h, with the eigensolver ``linalg.sqrt_psd`` applies later to the same
    h, so a state accepted here is never refused there.  One stacked
    Cholesky of h + s*I, s = (1 - 1e-4) * MATRIX_TOL, decides it, and eigh
    runs only if that Cholesky fails or returns a non-finite factor (its
    entries overflowed), to apply the rule itself.

    A finite factor of h + s*I exists only if lambda_min(h) > -s - eps,
    eps being the backward error, at most about n * gamma_(n+1) * ||h||
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10).
    A matrix passing the trace check with lambda_min(h) >= -2 * MATRIX_TOL
    has ||h|| <= 1 + 7 * MATRIX_TOL, so eps is a few 1e-15, below the gap
    MATRIX_TOL - s = 1e-14, as is eigh's own error (a larger ||h|| at unit
    trace means a lambda_min far below -MATRIX_TOL, which no factor
    survives).  So every stack the Cholesky accepts, the eigh rule accepts
    too; a matrix failing an earlier check is reported by that check either
    way.
    """
    m = np.asarray(mats, dtype=complex)
    finite = np.isfinite(m).all(axis=(-2, -1))
    x = m if finite.all() else np.where(finite[:, None, None], m, 0.0)
    defect = linalg.herm_defect(x)
    tr = linalg._trace(x)
    h = linalg._hermitian_part(x)
    bad = ~finite | (defect > MATRIX_TOL) | (np.abs(tr - 1.0) > MATRIX_TOL)
    try:
        psd = np.isfinite(np.linalg.cholesky(h + _PSD_SHIFT)).all()
    except np.linalg.LinAlgError:
        psd = False
    if not psd:
        wmin = np.linalg.eigh(h)[0][:, 0]
        bad |= wmin < -MATRIX_TOL
    if bad.any():
        k = int(np.argmax(bad))
        linalg.as_cmat(m[k])  # raises the message for non-finite entries
        if defect[k] > MATRIX_TOL:
            raise ValueError(f"not Hermitian: defect {defect[k]:.3e}")
        if abs(tr[k] - 1.0) > MATRIX_TOL:
            raise ValueError(f"trace must be 1, got {tr[k].real:.12g}{tr[k].imag:+.3e}j")
        raise ValueError(f"not positive semidefinite: min eigenvalue {wmin[k]:.3e}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 complex matrix validated to be Hermitian, unit-trace and PSD."""

    mat: np.ndarray

    def __post_init__(self):
        m = linalg._one_matrix(self.mat, dims=(4,))
        m = _validated(m[None])[0].copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class PureState:
    """Amplitudes (a00, a01, a10, a11) of a normalized two-qubit ket."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if abs(norm_sq - 1.0) > PURE_NORM_TOL:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm_sq:.15g}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)


def from_pure(p: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a pure state."""
    return DensityMatrix(np.outer(p.amps, p.amps.conj()))


def _purity(m: np.ndarray):
    """Tr(m^2) of a 4x4 matrix or of each matrix of a stack, clamped into [1/4, 1]."""
    return np.minimum(np.maximum(linalg._trace((m @ m).real), 0.25), 1.0)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), clamped into [1/4, 1] after rounding tolerance."""
    return float(_purity(rho.mat))


def rho_u(gamma: float, theta: float = 0.0) -> DensityMatrix:
    """Family interpolating from classical correlation to a Bell state.

    Diagonal (1/2, 0, 0, 1/2) with corner coherences exp(+i theta)*gamma and
    exp(-i theta)*gamma; valid for 0 <= gamma <= 1/2, any real theta.
    """
    if not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma must lie in [0, 1/2], got {gamma}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = gamma * np.exp(1j * theta)
    m[3, 0] = gamma * np.exp(-1j * theta)
    return DensityMatrix(m)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_PURE_AMPS = {
    "singlet": (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0),
    "phi_plus": (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2),
    "phi_minus": (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2),
    "psi_plus": (0.0, _INV_SQRT2, _INV_SQRT2, 0.0),
    "product00": (1.0, 0.0, 0.0, 0.0),
}


def canonical(name: str) -> DensityMatrix:
    """Named reference states used throughout the tests and the CLI."""
    if name in _PURE_AMPS:
        return from_pure(PureState(np.array(_PURE_AMPS[name], dtype=complex)))
    if name == "maximally_mixed":
        return DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    if name == "classically_correlated":
        return rho_u(0.0, 0.0)
    raise ValueError(f"unknown canonical state {name!r}")


def apply_local_unitary(rho: DensityMatrix, u_a, u_b) -> DensityMatrix:
    """Conjugate by uA (x) uB; both factors must be unitary within MATRIX_TOL."""
    u_a = linalg._one_matrix(u_a, dims=(2,))
    u_b = linalg._one_matrix(u_b, dims=(2,))
    for name, u in (("uA", u_a), ("uB", u_b)):
        defect = float(np.max(np.abs(u @ u.conj().T - SIGMA0)))
        if defect > MATRIX_TOL:
            raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    u = tensor(u_a, u_b)
    return DensityMatrix(u @ rho.mat @ u.conj().T)


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    """JSON form: {"re": 4x4 rows, "im": 4x4 rows}."""
    return {"re": rho.mat.real.tolist(), "im": rho.mat.imag.tolist()}


def density_matrix_from_dict(data: dict) -> DensityMatrix:
    """Parse the {"re", "im"} JSON form, enforcing all DensityMatrix invariants."""
    if not isinstance(data, dict) or set(data) != {"re", "im"}:
        raise ValueError('density matrix JSON must have exactly the fields "re" and "im"')
    re = _json_floats('"re"', data["re"])
    im = _json_floats('"im"', data["im"])
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError('"re" and "im" must each be 4x4 arrays of numbers')
    return DensityMatrix(re + 1j * im)


def pure_state_to_dict(p: PureState) -> dict:
    """JSON form: {"amps": [[re, im] x 4]} in |00>,|01>,|10>,|11> order."""
    return {"amps": [[z.real, z.imag] for z in p.amps]}


def pure_state_from_dict(data: dict) -> PureState:
    if not isinstance(data, dict) or set(data) != {"amps"}:
        raise ValueError('pure state JSON must have exactly the field "amps"')
    amps = _json_floats('"amps"', data["amps"])
    if amps.shape != (4, 2):
        raise ValueError('"amps" must be 4 pairs [re, im]')
    return PureState(amps[:, 0] + 1j * amps[:, 1])
