import functools

import numpy as np
import pytest

from entcov.concurrence import (
    PureInvariants,
    _concurrence_from_spectrum,
    _concurrence_pure,
    concurrence_mixed,
    concurrence_pure,
    g_pure_from_invariants,
    pure_invariants,
)
from entcov.ensembles import _chunks, _haar_amp_stack, haar_pure, random_local_unitary
from entcov.gmeasure import _g_from_moments, g_from_covariances
from entcov.observables import correlation_data, pauli_moments
from entcov.states import (
    DensityMatrix,
    PureState,
    _projectors,
    _validated_spectrum,
    apply_local_unitary,
    canonical,
    from_pure,
    rho_u,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
SINGLET = PureState(np.array([0.0, INV_SQRT2, -INV_SQRT2, 0.0], dtype=complex))
PHI_PLUS = PureState(np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2], dtype=complex))
KET00 = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))


def test_invariants_singlet():
    inv = pure_invariants(SINGLET)
    assert abs(inv.i_beta - 0.25) < 1e-12
    assert abs(4.0 * inv.i_beta - concurrence_pure(SINGLET) ** 2) < 1e-12


def test_invariants_product_state():
    assert pure_invariants(KET00).i_beta == 0.0


def test_invariants_phi_plus():
    inv = pure_invariants(PHI_PLUS)
    assert abs(inv.i1 - 1.0) < 1e-12
    assert abs(inv.i2 - 0.5) < 1e-12
    assert abs(inv.i_beta - 0.25) < 1e-12


def test_invariant_identities_over_haar_states():
    for k in range(2000):
        inv = pure_invariants(haar_pure(404, k))
        assert abs(inv.i_alpha - inv.i1) < 1e-12
        assert abs(inv.i_alpha - 1.0) < 1e-10
        assert abs(inv.i_beta - (inv.i1**2 - inv.i2) / 2.0) < 1e-12


def test_invariants_reject_inconsistent_values():
    with pytest.raises(ValueError):
        PureInvariants(i1=1.0, i2=0.5, i_alpha=0.9, i_beta=0.25)
    with pytest.raises(ValueError):
        PureInvariants(i1=1.0, i2=0.5, i_alpha=1.0, i_beta=0.3)
    # consistent with i1 and i2, but negative
    with pytest.raises(ValueError, match="^i_beta must be nonnegative, got -0.25$"):
        PureInvariants(i1=1.0, i2=1.5, i_alpha=1.0, i_beta=-0.25)


@pytest.mark.parametrize(
    "inside, outside, message",
    [
        (dict(i_alpha=1.0 + 5e-13), dict(i_alpha=1.0 + 2e-12), r"^i_alpha != i1 "),
        (dict(i_beta=5e-13), dict(i_beta=2e-12), r"^i_beta != \(i1\^2 - i2\)/2$"),
        # consistent with i1 and i2 (to about 1e-16), but negative
        (dict(i2=1.0 + 1e-12, i_beta=-5e-13), dict(i2=1.0 + 4e-12, i_beta=-2e-12),
         "^i_beta must be nonnegative, got "),
    ],
    ids=["i_alpha", "i_beta", "sign"],
)
def test_invariants_are_checked_to_1e_12(inside, outside, message):
    # INVARIANT_TOL is 1e-12: each check passes 5e-13 off and raises 2e-12 off.
    exact = dict(i1=1.0, i2=1.0, i_alpha=1.0, i_beta=0.0)
    PureInvariants(**{**exact, **inside})
    with pytest.raises(ValueError, match=message):
        PureInvariants(**{**exact, **outside})


def test_g_pure_from_invariants_endpoints():
    assert abs(g_pure_from_invariants(pure_invariants(SINGLET)) - 3.0) < 1e-12
    assert g_pure_from_invariants(pure_invariants(KET00)) == 0.0


def test_g_pure_reduces_to_8ib_plus_16ib2():
    for k in range(500):
        inv = pure_invariants(haar_pure(17, k))
        direct = 8.0 * inv.i_beta + 16.0 * inv.i_beta**2
        assert abs(g_pure_from_invariants(inv) - direct) < 1e-12


def test_g_pure_matches_covariance_form():
    for k in range(1000):
        p = haar_pure(23, k)
        g_inv = g_pure_from_invariants(pure_invariants(p))
        g_cov = g_from_covariances(correlation_data(from_pure(p)))
        assert abs(g_inv - g_cov) < 1e-10


def test_concurrence_pure_examples():
    assert abs(concurrence_pure(SINGLET) - 1.0) < 1e-12
    assert concurrence_pure(KET00) == 0.0
    amps = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)], dtype=complex)
    assert abs(concurrence_pure(PureState(amps)) - 0.8) < 1e-12


def test_concurrence_mixed_rho_u():
    for gamma in (0.0, 0.1, 0.25, 0.5):
        for theta in (0.0, 1.3):
            assert abs(concurrence_mixed(rho_u(gamma, theta)) - 2.0 * gamma) < 1e-10


def test_concurrence_mixed_maximally_mixed():
    assert concurrence_mixed(canonical("maximally_mixed")) == 0.0


def test_concurrence_mixed_werner():
    singlet = canonical("singlet").mat
    eye4 = np.eye(4, dtype=complex) / 4.0
    for p in (0.2, 1.0 / 3.0, 0.6, 1.0):
        rho = DensityMatrix(p * singlet + (1.0 - p) * eye4)
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence_mixed(rho) - expected) < 1e-10


def test_concurrence_mixed_agrees_with_pure():
    # haar_pure(31, k) and its from_pure for k < 10^4, a chunk at a time; the
    # stacked kernels give concurrence_mixed's and concurrence_pure's values
    # bit for bit
    for _, amps in _chunks(10_000, functools.partial(_haar_amp_stack, 31)):
        mixed = _concurrence_from_spectrum(*_validated_spectrum(_projectors(amps)))
        assert np.all(np.abs(mixed - _concurrence_pure(amps)) < 1e-9)


def test_concurrence_invariant_under_local_unitaries():
    for k in range(500):
        p = haar_pure(37, k)
        rho = from_pure(p)
        u_a, u_b = random_local_unitary(41, k)
        rotated = apply_local_unitary(rho, u_a, u_b)
        assert abs(concurrence_mixed(rotated) - concurrence_mixed(rho)) < 1e-9


def test_pure_master_relation_sample():
    # haar_pure(43, k) for k < 1000, a chunk at a time
    for _, amps in _chunks(1000, functools.partial(_haar_amp_stack, 43)):
        c = _concurrence_pure(amps)
        g = _g_from_moments(pauli_moments(_validated_spectrum(_projectors(amps))[0]))
        assert np.all(np.abs(g - c * c * (2.0 + c * c)) < 1e-9)
        # for pure states G > 0 iff C > 0
        assert np.all(g[c > 1e-4] > 1e-9)
        assert np.all(c[g > 1e-9] > 0.0)
