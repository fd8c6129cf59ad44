"""The stacked (N, 4, 4) kernels against the per-state code they replaced.

The reference functions below are the scalar implementations as they stood
before the kernels took stacks; every kernel must reproduce them bit for
bit (``np.array_equal``) on every matrix of a stack, whatever the stack's
size and mix of states, and so must the public scalar functions, which
are now the kernels' one-matrix case.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcov.concurrence import _concurrence, concurrence_mixed
from entcov.ensembles import (
    EnsembleSpec,
    _ginibre_stack,
    _stack,
    ginibre,
    haar_pure,
    separable_mixture,
)
from entcov.gmeasure import _g_from_moments, g_from_covariances
from entcov.linalg import MATRIX_TOL, SIGMA2, _trace, eig_hermitian, sqrt_psd, tensor
from entcov.observables import PAIR_OBS, correlation_data, pauli_moments
from entcov.states import (
    DensityMatrix,
    _purity,
    _validated,
    canonical,
    from_pure,
    purity,
    rho_u,
)

YY = tensor(SIGMA2, SIGMA2)
NAMED = ("singlet", "phi_plus", "phi_minus", "psi_plus", "product00", "maximally_mixed",
         "classically_correlated")


def ref_validate(m) -> None:
    """The DensityMatrix checks, one matrix at a time."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > MATRIX_TOL:
        raise ValueError(f"not Hermitian: defect {defect:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > MATRIX_TOL:
        raise ValueError(f"trace must be 1, got {tr.real:.12g}{tr.imag:+.3e}j")
    wmin = float(np.linalg.eigh(m / 2 + m.conj().T / 2)[0][0])
    if wmin < -MATRIX_TOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue {wmin:.3e}")


def ref_purity(m) -> float:
    return min(max(float(np.real(np.trace(m @ m))), 0.25), 1.0)


def ref_moments(m) -> np.ndarray:
    return np.real(np.einsum("mnij,ji->mn", PAIR_OBS, m))


def ref_g(m) -> float:
    t = ref_moments(m)
    cov = t[1:, 1:] - np.outer(t[1:, 0], t[0, 1:])
    return min(max(float(np.sum(cov**2)), 0.0), 3.0)


def ref_eigh(m):
    w, v = np.linalg.eigh(m / 2 + m.conj().T / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def ref_concurrence(m) -> float:
    rho_tilde = YY @ m.conj() @ YY
    w, v = ref_eigh(m)
    w = np.maximum(w, 0.0)
    w[w < 1e-13 * w[0]] = 0.0
    s = (v * np.sqrt(w)) @ v.conj().T
    w, _ = ref_eigh(s @ rho_tilde @ s)
    w = np.maximum(w, 0.0)
    w[w < 1e-12] = 0.0
    lam = np.sqrt(w)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


seeds, indices = st.integers(0, 2**32 - 1), st.integers(0, 10**6)
one_state = st.one_of(
    st.builds(lambda s, i, r: ginibre(s, i, r).mat, seeds, indices, st.integers(1, 4)),
    st.builds(lambda s, i: from_pure(haar_pure(s, i)).mat, seeds, indices),
    st.builds(lambda s, i, n: separable_mixture(s, i, n).mat, seeds, indices, st.integers(1, 6)),
    st.builds(lambda name: canonical(name).mat, st.sampled_from(NAMED)),
    st.builds(lambda g: rho_u(g, 0.0).mat, st.floats(0.0, 0.5)),
)
stacks = st.lists(one_state, min_size=1, max_size=64).map(np.stack)
few = settings(max_examples=40, deadline=None, database=None)


@few
@given(stacks)
@example(np.stack([rho_u(2.2250738585e-313, 0.0).mat]))  # a subnormal gamma
def test_stack_kernels_equal_the_scalar_reference(mats):
    assert np.array_equal(_validated(mats), mats)
    p, t, c = _purity(mats), pauli_moments(mats), _concurrence(mats)
    g = _g_from_moments(t)
    for k, m in enumerate(mats):
        ref_validate(m)
        rho = DensityMatrix(m)
        assert np.array_equal(rho.mat, m)
        assert np.array_equal(p[k], ref_purity(m)) and purity(rho) == p[k]
        assert np.array_equal(t[k], ref_moments(m))
        assert np.array_equal(pauli_moments(m), t[k])
        assert np.array_equal(g[k], ref_g(m))
        assert g_from_covariances(correlation_data(rho)) == g[k]
        assert np.array_equal(c[k], ref_concurrence(m)) and concurrence_mixed(rho) == c[k]


def corrupt(m: np.ndarray, how: str) -> np.ndarray:
    m = m.copy()
    if how == "nan":
        m[0, 1] = np.nan
    elif how == "inf":
        m[2, 2] = np.inf
    elif how == "hermitian":
        m[0, 1] += 1e-6
    elif how == "trace":
        m *= 1.01
    else:  # Hermitian and unit trace, but the (1, 1) entry is at most -1
        m += np.diag([2.0, -2.0, 0.0, 0.0])
    return m


def message(fn, m) -> str:
    with pytest.raises(ValueError) as info:
        fn(m)
    return str(info.value)


BAD = ("nan", "inf", "hermitian", "trace", "psd")


@few
@given(stacks, st.data())
def test_a_bad_matrix_raises_its_own_scalar_message(mats, data):
    n = len(mats)
    k = data.draw(st.integers(0, n - 1), label="bad index")
    how = data.draw(st.sampled_from(BAD), label="corruption")
    single = mats.copy()
    single[k] = corrupt(mats[k], how)
    # the state validation reports the first failing matrix across all its checks
    several = single.copy()
    if k < n - 1 and data.draw(st.booleans(), label="second bad matrix"):
        later = data.draw(st.integers(k + 1, n - 1), label="later index")
        several[later] = corrupt(mats[later], data.draw(st.sampled_from(BAD), label="later how"))
    expected = message(DensityMatrix, single[k])
    assert message(ref_validate, single[k]) == expected
    for bad in (single, several):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            _validated(bad)
    # the linear-algebra kernels run each check over the whole stack in turn
    kernels = {"hermitian": (pauli_moments, eig_hermitian, sqrt_psd), "psd": (sqrt_psd,)}
    for kernel in kernels.get(how, ()):
        scalar = message(kernel, single[k])
        with pytest.raises(ValueError, match=f"^{re.escape(scalar)}$"):
            kernel(single)


def near_edge(rng, delta: float, rank: int) -> np.ndarray:
    """A trace-1 Hermitian matrix of the given rank, min eigenvalue -MATRIX_TOL * (1 + delta)."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = np.zeros(4)
    w[0] = -MATRIX_TOL * (1 + delta)
    w[1:rank] = rng.random(rank - 1)
    w[1:rank] *= (1 - w[0]) / w[1:rank].sum()
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


def outcome(fn, m) -> str:
    try:
        fn(m)
    except (ValueError, np.linalg.LinAlgError) as e:
        return f"{type(e).__name__}: {e}"
    return "accepted"


def test_the_psd_decision_at_the_tolerance_edge_is_the_eigh_rule():
    rng = np.random.default_rng(20261019)
    deltas = [sign * d for d in (1e-2, 1e-4, 1e-6, 1e-8) for sign in (1, -1)]
    mats = np.stack([near_edge(rng, d, rank) for _ in range(4) for d in deltas for rank in (2, 3, 4)])
    expected = [outcome(ref_validate, m) for m in mats]
    assert 0 < expected.count("accepted") < len(mats)  # both sides of the edge are reached
    for m, want in zip(mats, expected):
        assert outcome(_validated, m[None]) == want
        assert outcome(DensityMatrix, m) == want
    first_bad = next(w for w in expected if w != "accepted")
    assert outcome(_validated, mats) == first_bad
    kept = [k for k, w in enumerate(expected) if w == "accepted"]
    assert np.array_equal(_validated(mats[kept]), mats[kept])


def test_an_overflowing_hermitian_part_goes_to_the_eigh_rule():
    # Hermitian, unit trace and finite, with entries near 1e308, where
    # m + m^dagger would overflow; the Cholesky of the first may return NaN
    # factors without raising (OpenBLAS does)
    big = np.diag([0.25] * 4).astype(complex)
    big[0, 1] = big[1, 0] = 1e308
    imaginary = np.diag([0.25] * 4).astype(complex)
    imaginary[3, 2], imaginary[2, 3] = 1e308j, -1e308j
    split = np.diag([1.5e308, -1.5e308, 1.0, 0.0]).astype(complex)
    for m, wmin in ((big, "-1.000e+308"), (imaginary, "-1.000e+308"), (split, "-1.500e+308")):
        expected = f"ValueError: not positive semidefinite: min eigenvalue {wmin}"
        assert outcome(_validated, m[None]) == outcome(ref_validate, m) == expected
        with pytest.raises(ValueError, match=re.escape(expected.removeprefix("ValueError: "))):
            DensityMatrix(m)


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_valid_stacks_are_validated_without_an_eigensolve(eigh_calls):
    mats = _ginibre_stack(20261019, np.arange(128), [1, 2, 3, 4] * 32)
    assert np.array_equal(_validated(mats), mats)
    spec = EnsembleSpec("fixed_purity", 32, 20261019, purity_target=0.46, purity_window=0.005)
    assert _stack(spec, np.arange(32)).shape == (32, 4, 4)
    assert eigh_calls == []
    bad = mats.copy()
    bad[77] = corrupt(mats[77], "psd")
    expected = message(ref_validate, bad[77])
    eigh_calls.clear()
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        _validated(bad)
    assert eigh_calls == [(128, 4, 4)]


def same_bits(a, b) -> bool:
    """Equal in every bit of the real and imaginary parts, so that +0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    a_re, a_im, b_re, b_im = (
        np.ascontiguousarray(part).view(np.uint64) for part in (a.real, a.imag, b.real, b.imag)
    )
    return np.array_equal(a_re, b_re) and np.array_equal(a_im, b_im)


def assert_numpys_trace(m):
    """_trace equals numpy's trace of a complex stack, and its real part on the real parts.

    numpy sums a real trace in another order, so the reference of a real
    matrix is the real part of numpy's trace of it as a complex matrix, the
    value that _trace(m.real) replaced in _induced and _purity.
    """
    m = np.asarray(m)
    expected = np.trace(m.astype(complex), axis1=-2, axis2=-1)
    if np.iscomplexobj(m):
        assert same_bits(_trace(m), expected)
    assert same_bits(_trace(m.real), expected.real)


def test_the_trace_kernel_is_numpys_complex_trace_bit_for_bit():
    rng = np.random.default_rng(20261019)
    assert_numpys_trace(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert_numpys_trace(rng.standard_normal((4, 4)))
    assert_numpys_trace(_ginibre_stack(20261019, np.arange(128), [1, 2, 3, 4] * 32))
    for rank in (1, 2, 3, 4):
        z = rng.standard_normal((64, 4, rank)) + 1j * rng.standard_normal((64, 4, rank))
        assert_numpys_trace(z @ z.conj().swapaxes(-1, -2))
    assert_numpys_trace(np.empty((0, 4, 4), dtype=complex))
    assert _trace(np.empty((0, 4, 4), dtype=complex)).shape == (0,)


def test_the_trace_kernel_right_after_a_complex_product():
    rng = np.random.default_rng(20261020)
    z = rng.standard_normal((16, 32, 4, 4)) + 1j * rng.standard_normal((16, 32, 4, 4))
    m = z @ z.conj().swapaxes(-1, -2)
    assert same_bits(_trace(m), np.trace(m, axis1=-2, axis2=-1))
    m = z @ z
    assert same_bits(_trace(m.real), np.trace(m, axis1=-2, axis2=-1).real)


def test_the_trace_kernel_keeps_the_sign_of_zero():
    zeros = []
    for re_signs, im_signs in itertools.product(itertools.product((0.0, -0.0), repeat=4), repeat=2):
        m = np.ones((4, 4), dtype=complex)
        m.real[np.diag_indices(4)] = re_signs
        m.imag[np.diag_indices(4)] = im_signs
        zeros.append(m)
    mats = np.stack(zeros)
    assert_numpys_trace(mats)
    for m in mats:
        assert_numpys_trace(m)
    assert same_bits(_trace(mats[-1]), 0j)  # numpy's sum of -0.0s is +0.0
