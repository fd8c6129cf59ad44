"""Wootters concurrence and the pure-state local-unitary invariant algebra.

The mixed-state concurrence is computed through the manifestly Hermitian
PSD matrix sqrt(rho) rho_tilde sqrt(rho), which shares its spectrum with
rho rho_tilde, so only a Hermitian eigensolver is ever needed.  Complex
conjugation is taken entrywise in the fixed computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _eigh, _hermitian_part, _psd_root
from .states import DensityMatrix, PureState

# sigma2 (x) sigma2 is the anti-diagonal (-1, 1, 1, -1), so the spin flip
# (sigma2 (x) sigma2) m (sigma2 (x) sigma2) is m with its rows and columns
# reversed and entry (i, j) signed by s_i s_j, s = (-1, 1, 1, -1).
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS.setflags(write=False)

INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class PureInvariants:
    """Local-unitary invariants (i1, i2) and derived quantities of a pure state.

    For any normalized state i_alpha equals i1 and is the normalization
    constant (so it is 1), and i_beta equals (i1^2 - i2)/2; both identities
    are enforced here.
    """

    i1: float
    i2: float
    i_alpha: float
    i_beta: float

    def __post_init__(self):
        if abs(self.i_alpha - self.i1) > INVARIANT_TOL:
            raise ValueError(f"i_alpha != i1 ({self.i_alpha} vs {self.i1})")
        if abs(self.i_beta - (self.i1**2 - self.i2) / 2) > INVARIANT_TOL:
            raise ValueError("i_beta != (i1^2 - i2)/2")
        if self.i_beta < -INVARIANT_TOL:
            raise ValueError(f"i_beta must be nonnegative, got {self.i_beta}")


def pure_invariants(p: PureState) -> PureInvariants:
    """Evaluate i1, the quadruple-sum invariant i2, i_alpha and i_beta."""
    a = p.amps.reshape(2, 2)
    i1 = float(np.sum((a * a.conj()).real))
    i2 = complex(np.einsum("km,kn,ln,lm->", a, a.conj(), a, a.conj()))
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    i_alpha = float(sum(abs(z) ** 2 for z in p.amps))
    i_beta = float(abs(det) ** 2)
    return PureInvariants(i1=i1, i2=i2.real, i_alpha=i_alpha, i_beta=i_beta)


def g_pure_from_invariants(inv: PureInvariants) -> float:
    """Closed-form G of a pure state in terms of its invariants.

    Evaluates (Ia^2 + 8 Ib) - 2 Ia (Ia^2 - 4 Ib) + (Ia^2 - 4 Ib)^2 literally;
    for normalized states this reduces to 8 Ib + 16 Ib^2.
    """
    ia, ib = inv.i_alpha, inv.i_beta
    gap = ia**2 - 4 * ib
    return (ia**2 + 8 * ib) - 2 * ia * gap + gap**2


def _concurrence_pure(amps: np.ndarray):
    """2 |a00 a11 - a01 a10| of 4 amplitudes or of each row of an (..., 4) stack, in real
    parts and np.hypot: numpy's array complex product and abs differ from its scalar ones."""
    a = amps.transpose(-1, *range(amps.ndim - 1))  # amplitudes first; np.moveaxis is slower
    (r0, r1, r2, r3), (i0, i1, i2, i3) = a.real, a.imag
    x = (r0 * r3 - i0 * i3) - (r1 * r2 - i1 * i2)
    y = (r0 * i3 + i0 * r3) - (r1 * i2 + i1 * r2)
    return 2.0 * np.hypot(x, y)


def concurrence_pure(p: PureState) -> float:
    """C = 2 |a00 a11 - a01 a10| for a normalized pure state."""
    return float(_concurrence_pure(p.amps))


# trace(rho rho_tilde) <= 1, so eigenvalues of the spin-flip spectrum below
# this are rounding noise; sqrt would blow them up to ~1e-6 otherwise.
SPECTRUM_FLOOR = 1e-12


def _flip_product(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s rho_tilde s for a state matrix m (or stack) and its square root s: Hermitian up to
    rounding, since s and rho_tilde both are."""
    rho_tilde = m[..., ::-1, ::-1].conj()
    rho_tilde *= _FLIP_SIGNS
    return s @ rho_tilde @ s


def _wootters(w: np.ndarray):
    """max(0, l1 - l2 - l3 - l4) from the descending eigenvalues w of the spin-flip product."""
    w = np.maximum(w, 0.0)
    w[w < SPECTRUM_FLOOR] = 0.0
    lam = np.sqrt(w)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _concurrence_from_spectrum(m: np.ndarray, w: np.ndarray, v: np.ndarray):
    """Wootters concurrence of a validated state matrix m or of each matrix of a stack, given
    the descending eigendecomposition (w, v) of its Hermitian parts, which
    ``states._validated_spectrum`` returns; nothing is checked again.

    Bit for bit the checked kernels' value: ``sqrt_psd`` applies the same
    eigh to the same Hermitian parts, and ``eig_hermitian`` symmetrizes the
    product the same way.
    """
    return _wootters(_eigh(_hermitian_part(_flip_product(m, _psd_root(w, v))))[0])


def concurrence_mixed(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_k are the descending square roots of the eigenvalues of
    rho rho_tilde with rho_tilde = (sigma2 (x) sigma2) rho* (sigma2 (x) sigma2),
    obtained from the Hermitian matrix sqrt(rho) rho_tilde sqrt(rho), which
    shares that spectrum.  rho was validated at construction, so neither
    eigendecomposition checks it again.
    """
    m = rho.mat
    return float(_concurrence_from_spectrum(m, *_eigh(_hermitian_part(m))))
